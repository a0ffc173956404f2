import numpy as np
import pytest

from semloc import evaluation as ev
from semloc import liegroup as lg


def yaw_pose(yaw, origin):
    c, s = np.cos(yaw), np.sin(yaw)
    r_mv = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return lg.inverse(lg.Pose.from_rt(r_mv, origin))


def test_decompose_identical_poses(rng):
    pose = lg.exp_se3(np.r_[rng.normal(size=3), rng.normal(0, 0.3, 3)])
    lon, lat, heading = ev.decompose_error(pose, pose)
    assert lon == 0.0 and lat == 0.0 and heading < 1e-15


def test_decompose_yaw_only():
    true = yaw_pose(0.3, [5.0, -2.0, 0.0])
    est = yaw_pose(0.4, [5.0, -2.0, 0.0])
    lon, lat, heading = ev.decompose_error(est, true)
    assert lon < 1e-12 and lat < 1e-12
    assert abs(heading - 0.1) < 1e-12


def test_decompose_longitudinal_lateral_split():
    yaw = 0.7
    true = yaw_pose(yaw, [0.0, 0.0, 0.0])
    # shift the estimate 1 m along the true heading: purely longitudinal
    heading_dir = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    est = yaw_pose(yaw, heading_dir)
    lon, lat, _ = ev.decompose_error(est, true)
    assert abs(lon - 1.0) < 1e-12 and lat < 1e-12
    # and orthogonally: purely lateral
    lateral_dir = np.array([-np.sin(yaw), np.cos(yaw), 0.0])
    est = yaw_pose(yaw, lateral_dir)
    lon, lat, _ = ev.decompose_error(est, true)
    assert lon < 1e-12 and abs(lat - 1.0) < 1e-12


def test_offset_error_examples():
    assert ev.offset_error(lg.Pose.identity(), lg.Pose.identity()) == 0.0
    shifted = lg.Pose.from_rt(np.eye(3), [2.0, 2.0, 0.0])
    assert abs(ev.offset_error(shifted, lg.Pose.identity()) - np.sqrt(8.0)) < 1e-12


def test_nearest_rank_examples():
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert ev.nearest_rank(vals, 50.0) == 3.0
    same = np.full(100, 7.0)
    for p in (50.0, 95.0, 99.0):
        assert ev.nearest_rank(same, p) == 7.0


def test_nearest_rank_matches_brute_force(rng):
    for _ in range(50):
        vals = np.sort(rng.normal(size=rng.integers(1, 40)))
        p = rng.uniform(1, 100)
        rank = int(np.ceil(p / 100.0 * len(vals)))
        assert ev.nearest_rank(vals, p) == vals[max(rank, 1) - 1]


def make_errors(n=20):
    return [
        ev.FrameError(0.1 * k, 0.01 * k, 0.005 * k, 0.001 * k, 0.02 * k)
        for k in range(n)
    ]


def test_summarize_and_empty():
    summary = ev.summarize(make_errors())
    assert set(summary) == set(ev.METRICS)
    assert summary["lateral"]["median"] <= summary["lateral"]["p95"]
    assert summary["lateral"]["p95"] <= summary["lateral"]["p99"]
    with pytest.raises(ev.EmptyInput):
        ev.summarize([])


def test_histograms_bin_totals():
    errors = make_errors()
    hists = ev.histograms(errors)
    for metric in ev.METRICS:
        assert sum(hists[metric]["counts"]) == len(errors)
    assert hists["heading"]["bin_width"] == ev.HIST_BIN_RAD
    assert hists["lateral"]["bin_width"] == ev.HIST_BIN_M


def test_frames_csv_format():
    errors = make_errors(3)
    text = ev.frames_csv(errors, [True, False, True])
    lines = text.strip().split("\n")
    assert lines[0] == "t,longitudinal,lateral,heading,offset_err,gps_present"
    assert len(lines) == 4
    assert lines[1].endswith(",1") and lines[2].endswith(",0")
    # deterministic float formatting: regenerating gives identical bytes
    assert ev.frames_csv(errors, [True, False, True]) == text


def test_offset_csv_format():
    text = ev.offset_csv(make_errors(2))
    lines = text.strip().split("\n")
    assert lines[0] == "t,offset_err"
    assert len(lines) == 3
