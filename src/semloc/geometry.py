"""Pinhole camera model: projection into image space and analytic Jacobians.

Camera convention (single source of truth for the whole package):
z forward, x right, y down in the camera frame. Pixel origin is the
top-left image corner, u horizontal, v vertical. A pixel is a (2,) array
(u, v); an image line or segment is a (2, 2) array whose rows are its two
end pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liegroup import Pose, act, so3_wedge

# Points closer than this to the camera plane are not projectable.
NEAR_PLANE = 0.1


class BehindCamera(ValueError):
    """Point depth at or below the near plane."""


class HorizontalLine(ValueError):
    """Image line has no unique column per row."""


class DegenerateLine(ValueError):
    """Image line defined by two coincident pixels."""


@dataclass(frozen=True)
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    t_cv: Pose  # camera-from-vehicle extrinsic

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):  # NaN fails too
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def camera_point(p_m, t_vm: Pose, cam: CameraModel) -> np.ndarray:
    """Map-frame point (3,) or points (N, 3) expressed in the camera frame."""
    return act(cam.t_cv, act(t_vm, p_m))


def pinhole(q: np.ndarray, cam: CameraModel) -> np.ndarray:
    """Pixel coordinates (..., 2) of camera-frame points (..., 3) in front of the camera."""
    return (cam.fx, cam.fy) * q[..., :2] / q[..., 2:] + (cam.cx, cam.cy)


def project_point(p_m, t_vm: Pose, cam: CameraModel) -> np.ndarray:
    """Pixel (2,) of a map-frame point; it may land outside the image."""
    q = camera_point(p_m, t_vm, cam)
    if q[2] <= NEAR_PLANE:
        raise BehindCamera(f"depth {q[2]:.4f} <= {NEAR_PLANE}")
    return pinhole(q, cam)


def _clip_2d(p0: np.ndarray, p1: np.ndarray, width: float, height: float):
    """Liang-Barsky clip of an image segment against [0,width]x[0,height]."""
    d = p1 - p0
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-d[0], p0[0]),
        (d[0], width - p0[0]),
        (-d[1], p0[1]),
        (d[1], height - p0[1]),
    ):
        if abs(p) < 1e-15:
            if q < 0:
                return None
            continue
        t = q / p
        if p < 0:
            t0 = max(t0, t)
        else:
            t1 = min(t1, t)
        if t0 > t1:
            return None
    return p0 + t0 * d, p0 + t1 * d


def project_polyline(vertices, t_vm: Pose, cam: CameraModel):
    """Project a map-frame polyline, clipping against the near plane and image rectangle.

    Returns (segments (K, 2, 2), source (K,)): the end pixels of each
    (partially) visible piece, and the index i of the polyline segment
    vertices[i] -> vertices[i + 1] it comes from. K = 0 means the polyline
    is fully invisible.
    """
    vertices = np.asarray(vertices, dtype=float)
    if len(vertices) < 2:
        raise ValueError("polyline needs at least 2 vertices")
    segments, source = [], []
    cam_pts = camera_point(vertices, t_vm, cam)
    for i in range(len(vertices) - 1):
        a, b = cam_pts[i], cam_pts[i + 1]
        za, zb = a[2], b[2]
        if za <= NEAR_PLANE and zb <= NEAR_PLANE:
            continue
        if za <= NEAR_PLANE or zb <= NEAR_PLANE:
            s = (NEAR_PLANE - za) / (zb - za)
            crossing = a + s * (b - a)
            if za <= NEAR_PLANE:
                a = crossing
            else:
                b = crossing
        # an endpoint exactly on the near plane is nudged inward along the ray
        if a[2] <= NEAR_PLANE:
            a = a + 1e-9 * (b - a)
        if b[2] <= NEAR_PLANE:
            b = b + 1e-9 * (a - b)
        clipped = _clip_2d(pinhole(a, cam), pinhole(b, cam), cam.width, cam.height)
        if clipped is None:
            continue
        q0, q1 = clipped
        if np.hypot(*(q1 - q0)) <= 1e-9:
            continue
        segments.append(clipped)
        source.append(i)
    return np.reshape(segments, (-1, 2, 2)), np.array(source, dtype=int)


def line_x_at_y(line: np.ndarray, y_i) -> np.ndarray:
    """Column coordinates where the line (2, 2) crosses the given rows."""
    y_i = np.asarray(y_i, dtype=float).reshape(-1)
    (u0, v0), (u1, v1) = line
    du, dv = u1 - u0, v1 - v0
    if np.hypot(du, dv) <= 1e-6:
        raise DegenerateLine("defining pixels must be distinct")
    if abs(dv) <= 1e-6:
        raise HorizontalLine("line is horizontal in image space")
    return u0 + (y_i - v0) * du / dv


def pixel_jacobian_wrt_camera_point(q: np.ndarray, cam: CameraModel) -> np.ndarray:
    """2x3 Jacobian of the pinhole map at camera-frame point q."""
    x, y, z = q
    return np.array(
        [
            [cam.fx / z, 0.0, -cam.fx * x / (z * z)],
            [0.0, cam.fy / z, -cam.fy * y / (z * z)],
        ]
    )


def pose_jacobian_at(p_v: np.ndarray, q: np.ndarray, cam: CameraModel) -> np.ndarray:
    """2x6 Jacobian of the pixel of camera-frame point q = T_cv p_v w.r.t. the
    left perturbation T_vm <- exp(dxi^) T_vm, dxi = (drho; dphi)."""
    dq_dxi = cam.t_cv.rotation @ np.hstack([np.eye(3), -so3_wedge(p_v)])
    return pixel_jacobian_wrt_camera_point(q, cam) @ dq_dxi


def point_projection_jacobian(p_m, t_vm: Pose, cam: CameraModel):
    """Pixel (2,) of a map-frame point and its 2x6 Jacobian w.r.t. a left pose
    perturbation, both from one camera-frame point."""
    p_v = act(t_vm, p_m)
    q = act(cam.t_cv, p_v)
    if q[2] <= NEAR_PLANE:
        raise BehindCamera(f"depth {q[2]:.4f} <= {NEAR_PLANE}")
    return pinhole(q, cam), pose_jacobian_at(p_v, q, cam)
