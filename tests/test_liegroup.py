import numpy as np
import pytest

from semloc import liegroup as lg
from conftest import rand_pose, rand_twist


def series_exp(xi, n_terms=30):
    """Truncated matrix-exponential power series; independent oracle."""
    m = lg.se3_wedge(xi)
    out = np.eye(4)
    term = np.eye(4)
    for k in range(1, n_terms):
        term = term @ m / k
        out = out + term
    return out


def test_so3_wedge_substitution():
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(lg.so3_wedge([1.0, 2.0, 3.0]), expected)


def test_se3_wedge_zero_and_translation():
    assert np.array_equal(lg.se3_wedge(np.zeros(6)), np.zeros((4, 4)))
    m = lg.se3_wedge(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    expected = np.zeros((4, 4))
    expected[0, 3] = 1.0
    assert np.array_equal(m, expected)


def test_exp_zero_is_identity():
    assert np.allclose(lg.exp_se3(np.zeros(6)).t, np.eye(4), atol=1e-15)


def test_exp_quarter_turn_matches_series():
    xi = np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi / 2.0])
    pose = lg.exp_se3(xi)
    assert np.abs(pose.t - series_exp(xi)).max() < 1e-9
    # 90 degrees about z maps x to y
    assert np.allclose(pose.rotation @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)


def test_exp_matches_series_random(rng):
    for _ in range(100):
        xi = rand_twist(rng)
        assert np.abs(lg.exp_se3(xi).t - series_exp(xi)).max() < 1e-9


def test_log_identity_and_pure_translation():
    assert np.array_equal(lg.log_se3(lg.Pose.identity()), np.zeros(6))
    pose = lg.Pose.from_rt(np.eye(3), [1.0, -2.0, 3.0])
    xi = lg.log_se3(pose)
    assert np.allclose(xi[:3], [1.0, -2.0, 3.0], atol=1e-15)
    assert np.array_equal(xi[3:], np.zeros(3))


def test_exp_log_round_trip(rng):
    for _ in range(200):
        xi = rand_twist(rng, trans_scale=3.0, rot_scale=0.9)
        back = lg.log_se3(lg.exp_se3(xi))
        assert np.abs(back - xi).max() < 1e-9


def test_log_near_pi_raises():
    pose = lg.Pose.from_rt(
        lg.so3_exp(np.array([0.0, 0.0, np.pi - 1e-9])), np.zeros(3)
    )
    with pytest.raises(lg.NearPiRotation):
        lg.log_se3(pose)


def test_compose_inverse_act(rng):
    pose = rand_pose(rng)
    assert np.abs(lg.compose(pose, lg.inverse(pose)).t - np.eye(4)).max() < 1e-12
    p = rng.normal(size=3)
    assert np.allclose(lg.act(lg.Pose.identity(), p), p)
    shift = lg.Pose.from_rt(np.eye(3), [1.0, 0.0, 0.0])
    assert np.allclose(lg.act(shift, np.zeros(3)), [1.0, 0.0, 0.0])


def test_adjoint_conjugation_identity(rng):
    # exp((Ad_T xi)^) = T exp(xi^) T^-1
    for _ in range(20):
        pose = rand_pose(rng)
        xi = rand_twist(rng, 1.0, 0.4)
        lhs = lg.exp_se3(lg.adjoint(pose) @ xi)
        rhs = lg.compose(pose, lg.compose(lg.exp_se3(xi), lg.inverse(pose)))
        assert np.abs(lhs.t - rhs.t).max() < 1e-9


def test_se3_left_jacobian_matches_fd(rng):
    # J_l maps a twist increment to the left log-perturbation of exp.
    h = 1e-7
    for _ in range(20):
        xi = rand_twist(rng, 1.0, 0.5)
        jac = lg.se3_left_jacobian(xi)
        fd = np.zeros((6, 6))
        for i in range(6):
            d = np.zeros(6)
            d[i] = h
            plus = lg.exp_se3(xi + d)
            minus = lg.exp_se3(xi - d)
            rel = lg.compose(plus, lg.inverse(minus))
            fd[:, i] = lg.log_se3(rel) / (2.0 * h)
        assert np.abs(jac - fd).max() < 1e-6


def test_left_jacobian_inverse_consistent(rng):
    for _ in range(20):
        xi = rand_twist(rng, 1.0, 0.6)
        prod = lg.se3_left_jacobian(xi) @ lg.se3_left_jacobian_inv(xi)
        assert np.abs(prod - np.eye(6)).max() < 1e-10


def test_pose_rejects_non_rotation():
    bad = np.eye(4)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError):
        lg.Pose(bad)


def test_run_checks_poses_only_where_they_enter(monkeypatch):
    """Products of checked poses are not re-checked; correct() passes its
    result through the checked constructor once per frame."""
    from semloc import config, pipeline
    doc = config.preset("nominal")
    doc["scenario"]["duration"] = 3.0
    cfg = config.from_dict(doc)
    calls = []
    check = lg._check_rotation
    monkeypatch.setattr(lg, "_check_rotation", lambda r: calls.append(1) or check(r))
    pipeline.run_scenario(cfg)
    assert 0 < len(calls) <= 3 * cfg.scenario.n_frames
