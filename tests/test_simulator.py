import numpy as np
import pytest

from semloc import liegroup as lg
from semloc import simulator as sim


def test_world_counts_single_block():
    scenario = sim.Scenario()
    smap = sim.generate_world(scenario)
    # 2 east-west roads + 2 north-south roads, 3 boundary lines each
    assert len(smap.lanes) == 12
    # 4 intersections x 4 corner lights
    assert len(smap.lights) == 16
    corners = {(0.0, 0.0), (0.0, 120.0), (120.0, 0.0), (120.0, 120.0)}
    seen = set()
    for light in smap.lights:
        x, y, z = light.position
        assert z == sim.LIGHT_HEIGHT
        seen.add((round(x / 60.0) * 60.0, round(y / 60.0) * 60.0))
    assert seen == corners


def test_world_ids_unique_and_stable():
    smap = sim.generate_world(sim.Scenario())
    lane_ids = [l.id for l in smap.lanes]
    light_ids = [l.id for l in smap.lights]
    assert lane_ids == list(range(12))
    assert light_ids == list(range(1000, 1016))


def test_trajectory_straight_segment_twist():
    scenario = sim.Scenario()
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    assert np.allclose(truth[0].varpi_true.vec,
                       [scenario.speed, 0, 0, 0, 0, 0])


def test_trajectory_turn_yaw_rate():
    scenario = sim.Scenario()
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    yaw_rates = np.array([abs(f.varpi_true.phi[2]) for f in truth])
    turning = yaw_rates[yaw_rates > 1e-9]
    assert len(turning) > 0
    expected = scenario.speed / scenario.turn_radius
    assert np.abs(turning - expected).max() / expected < 0.05


def test_trajectory_kinematic_consistency():
    scenario = sim.Scenario(duration=20.0)
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    dt = scenario.dt
    for prev, nxt in zip(truth[:-1], truth[1:]):
        step = lg.exp_se3(lg.Twist.from_vector(dt * prev.varpi_true.vec))
        predicted = lg.compose(step, prev.t_vm_true)
        assert np.abs(predicted.t - nxt.t_vm_true.t).max() < 1e-12


def test_trajectory_path_length():
    scenario = sim.Scenario()
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    origins = np.array([lg.inverse(f.t_vm_true).translation for f in truth])
    length = np.linalg.norm(np.diff(origins, axis=0), axis=1).sum()
    target = scenario.speed * scenario.duration
    assert abs(length - target) / target < 0.05


def test_trajectory_stays_planar_on_lane_center():
    scenario = sim.Scenario(duration=60.0)
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    for f in truth:
        origin = lg.inverse(f.t_vm_true).translation
        assert abs(origin[2]) < 1e-9


def test_gps_dropout_schedule():
    scenario = sim.Scenario(dropout_schedule=((30.0, 60.0),))
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    cam = sim.default_camera()
    frame_45 = truth[450]
    assert abs(frame_45.t - 45.0) < 1e-9
    sensor = sim.simulate_frame(frame_45, scenario, smap, cam, 450)
    assert sensor.gps is None
    sensor = sim.simulate_frame(truth[0], scenario, smap, cam, 0)
    assert sensor.gps is not None
    # half-open interval: dropped at the start, present again at the end
    assert scenario.gps_dropped(30.0) and not scenario.gps_dropped(60.0)


def test_dropout_validation():
    with pytest.raises(ValueError):
        sim.Scenario(dropout_schedule=((10.0, 5.0),))
    with pytest.raises(ValueError):
        sim.Scenario(dropout_schedule=((0.0, 50.0), (40.0, 60.0)))
    with pytest.raises(ValueError):
        sim.Scenario(duration=30.0, dropout_schedule=((10.0, 40.0),))


def test_simulate_frame_deterministic():
    scenario = sim.Scenario(seed=3, outlier_rate=0.2)
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    cam = sim.default_camera()
    a = sim.simulate_frame(truth[77], scenario, smap, cam, 77)
    b = sim.simulate_frame(truth[77], scenario, smap, cam, 77)
    assert a.gps is not None and np.array_equal(a.gps.t, b.gps.t)
    assert a.light_pixels == b.light_pixels
    assert a.lane_pixels == b.lane_pixels
    assert a.wheel == b.wheel


def test_gps_measurement_consistent_with_offset():
    offset = lg.Pose.from_rt(np.eye(3), [2.0, 2.0, 0.0])
    scenario = sim.Scenario(
        offset_true=offset, gps_noise_trans_std=0.0, gps_noise_rot_std=0.0
    )
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    cam = sim.default_camera()
    sensor = sim.simulate_frame(truth[10], scenario, smap, cam, 10)
    expected = lg.compose(truth[10].t_vm_true, lg.inverse(offset))
    assert np.abs(sensor.gps.t - expected.t).max() < 1e-12


def test_wheel_measurement_zero_noise():
    scenario = sim.Scenario(wheel_noise_v_std=0.0, wheel_noise_w_std=0.0)
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    cam = sim.default_camera()
    sensor = sim.simulate_frame(truth[5], scenario, smap, cam, 5)
    assert sensor.wheel == (scenario.speed, 0.0)


def test_true_offsets_constant_without_drift():
    offset = lg.Pose.from_rt(np.eye(3), [2.0, 2.0, 0.0])
    scenario = sim.Scenario(duration=5.0, offset_true=offset)
    offsets = sim.true_offsets(scenario)
    assert len(offsets) == scenario.n_frames
    assert all(o is offset for o in offsets)


def test_true_offsets_drift_walks():
    scenario = sim.Scenario(duration=5.0, offset_drift_trans_std=0.1)
    offsets = sim.true_offsets(scenario)
    deltas = [
        np.linalg.norm(offsets[k].translation - offsets[k - 1].translation)
        for k in range(1, len(offsets))
    ]
    assert max(deltas) > 0.0


def test_outlier_injection_adds_detections():
    scenario_clean = sim.Scenario(seed=2)
    scenario_dirty = sim.Scenario(seed=2, outlier_rate=0.5)
    smap = sim.generate_world(scenario_clean)
    truth = sim.generate_trajectory(scenario_clean, smap)
    cam = sim.default_camera()
    clean = sim.simulate_frame(truth[100], scenario_clean, smap, cam, 100)
    dirty = sim.simulate_frame(truth[100], scenario_dirty, smap, cam, 100)
    assert len(dirty.lane_pixels) > len(clean.lane_pixels)
    # inlier detections are identical thanks to per-channel RNG streams
    assert dirty.lane_pixels[: len(clean.lane_pixels)] == clean.lane_pixels
