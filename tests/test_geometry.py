import numpy as np
import pytest

from semloc import config as cm
from semloc import geometry as geo
from semloc import liegroup as lg
from semloc.simulator import default_camera


def simple_camera(fx=500.0, fy=500.0, cx=320.0, cy=240.0):
    """Camera at the map origin looking along map +x (identity vehicle pose).

    Camera axes: z forward = +x map, x right = -y map, y down = -z map.
    """
    r_cm = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    t_cv = lg.Pose.from_rt(r_cm, np.zeros(3))
    return geo.CameraModel(fx=fx, fy=fy, cx=cx, cy=cy, width=640, height=480,
                           t_cv=t_cv)


def test_optical_axis_projects_to_principal_point():
    cam = simple_camera()
    for depth in (0.5, 3.0, 100.0):
        px = geo.project_point([depth, 0.0, 0.0], lg.Pose.identity(), cam)
        assert np.allclose(px.vec, [320.0, 240.0], atol=1e-12)


def test_pinhole_hand_arithmetic():
    # point 5 m ahead, 1 m to the right: u = 320 + 500 * (1/5) = 420
    cam = simple_camera()
    px = geo.project_point([5.0, -1.0, 0.0], lg.Pose.identity(), cam)
    assert abs(px.u - 420.0) < 1e-12
    assert abs(px.v - 240.0) < 1e-12


def test_behind_camera_raises():
    cam = simple_camera()
    with pytest.raises(geo.BehindCamera):
        geo.project_point([-1.0, 0.0, 0.0], lg.Pose.identity(), cam)


def test_project_polyline_fully_behind_is_empty():
    cam = simple_camera()
    verts = [[-5.0, 0.0, 0.0], [-3.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]
    assert geo.project_polyline(verts, lg.Pose.identity(), cam) == []


def test_project_polyline_near_plane_clip():
    cam = simple_camera()
    # segment from behind the camera to 5 m ahead, slightly off-axis
    verts = [[-2.0, 0.4, 0.0], [5.0, 0.4, 0.0]]
    segs = geo.project_polyline(verts, lg.Pose.identity(), cam)
    assert len(segs) == 1
    seg = segs[0]
    # oracle: project densely sampled visible points; every sample must lie
    # within the clipped segment's pixel hull (here: a horizontal row span)
    us = []
    for s in np.linspace(0.0, 1.0, 2001):
        p = (1 - s) * np.array(verts[0]) + s * np.array(verts[1])
        if p[0] > geo.NEAR_PLANE + 1e-6:
            px = geo.project_point(p, lg.Pose.identity(), cam)
            if 0 <= px.u <= cam.width and 0 <= px.v <= cam.height:
                us.append(px.u)
    lo, hi = sorted([seg.p0.u, seg.p1.u])
    assert min(us) >= lo - 0.5 and max(us) <= hi + 0.5


def test_project_polyline_clip_depth_at_near_plane():
    cam = simple_camera()
    # nearly axial segment: the near-plane crossing projects inside the image
    verts = [[-2.0, 0.001, 0.0], [5.0, 0.001, 0.0]]
    segs = geo.project_polyline(verts, lg.Pose.identity(), cam)
    assert len(segs) == 1
    seg = segs[0]
    # invert the pinhole at the clipped (widest-u-offset) endpoint:
    # u = cx - fx * y / z  =>  z = fx * y / (cx - u)
    u_near = max(seg.p0.u, seg.p1.u, key=lambda u: abs(u - cam.cx))
    depth = cam.fx * 0.001 / abs(u_near - cam.cx)
    assert abs(depth - geo.NEAR_PLANE) < 1e-6


def test_project_polyline_source_indices():
    cam = simple_camera()
    verts = [[2.0, -0.5, 0.0], [4.0, -0.5, 0.0], [6.0, -0.5, 0.0]]
    segs = geo.project_polyline(verts, lg.Pose.identity(), cam)
    assert [s.source_index for s in segs] == [0, 1]


def test_line_x_at_y_vertical_and_diagonal():
    vert = geo.ImageLine(geo.Pixel(100.0, 0.0), geo.Pixel(100.0, 50.0))
    assert np.allclose(geo.line_x_at_y(vert, [3.0, 17.0]), [100.0, 100.0])
    diag = geo.ImageLine(geo.Pixel(0.0, 0.0), geo.Pixel(10.0, 10.0))
    assert np.allclose(geo.line_x_at_y(diag, [2.0, 8.0]), [2.0, 8.0])


def test_line_x_at_y_horizontal_raises():
    line = geo.ImageLine(geo.Pixel(0.0, 5.0), geo.Pixel(10.0, 5.0))
    with pytest.raises(geo.HorizontalLine):
        geo.line_x_at_y(line, [5.0])


def test_pixel_jacobian_depth_scaling():
    cam = simple_camera()
    d = 10.0
    j1 = geo.pixel_jacobian_wrt_camera_point(np.array([0.0, 0.0, d]), cam)
    j2 = geo.pixel_jacobian_wrt_camera_point(np.array([0.0, 0.0, 2 * d]), cam)
    assert abs(j1[0, 0] / j2[0, 0] - 2.0) < 1e-12
    assert abs(j1[1, 1] / j2[1, 1] - 2.0) < 1e-12


def test_point_projection_jacobian_zero_perturbation():
    cam = default_camera()
    jac = geo.point_projection_jacobian([-20.0, 1.0, 5.0], lg.Pose.identity(), cam)
    assert np.allclose(jac @ np.zeros(6), 0.0)


def test_point_projection_jacobian_matches_fd(rng):
    cam = default_camera()
    h = 1e-6
    for _ in range(25):
        pose = lg.exp_se3(lg.Twist(rng.normal(0, 1, 3), rng.normal(0, 0.2, 3)))
        # point in front of the camera at this pose
        p_v = np.array([-rng.uniform(5, 40), rng.uniform(-5, 5), rng.uniform(0, 5)])
        p_m = lg.act(lg.inverse(pose), p_v)
        jac = geo.point_projection_jacobian(p_m, pose, cam)
        fd = np.zeros((2, 6))
        for i in range(6):
            d = np.zeros(6)
            d[i] = h
            plus = lg.compose(lg.exp_se3(lg.Twist.from_vector(d)), pose)
            minus = lg.compose(lg.exp_se3(lg.Twist.from_vector(-d)), pose)
            fd[:, i] = (
                geo.project_point(p_m, plus, cam).vec
                - geo.project_point(p_m, minus, cam).vec
            ) / (2.0 * h)
        denom = max(1.0, np.abs(fd).max())
        assert np.abs(jac - fd).max() / denom < 1e-5


def test_camera_model_round_trip():
    cam = default_camera()
    doc = cm.to_dict(cm.RunConfig(camera=cam))
    again = cm.from_dict(doc).camera
    assert again.fx == cam.fx and again.cy == cam.cy
    assert np.allclose(again.t_cv.t, cam.t_cv.t)


def test_camera_model_validation():
    with pytest.raises(ValueError):
        geo.CameraModel(fx=-1.0, fy=500.0, cx=320.0, cy=240.0,
                        width=640, height=480, t_cv=lg.Pose.identity())
