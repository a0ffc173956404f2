"""Pinhole camera model: projection into image space and analytic Jacobians.

Camera convention (single source of truth for the whole package):
z forward, x right, y down in the camera frame. Pixel origin is the
top-left image corner, u horizontal, v vertical.
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
class Pixel:
    u: float
    v: float

    def __post_init__(self):
        if not (np.isfinite(self.u) and np.isfinite(self.v)):
            raise ValueError("pixel coordinates must be finite")

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.u, self.v])


@dataclass(frozen=True)
class ImageLine:
    """Infinite image-space line through two distinct pixels."""

    p0: Pixel
    p1: Pixel

    def __post_init__(self):
        sep = np.hypot(self.p1.u - self.p0.u, self.p1.v - self.p0.v)
        if sep <= 1e-6:
            raise DegenerateLine("defining pixels must be distinct")


@dataclass(frozen=True)
class ImageSegment:
    """Clipped visible piece of a projected polyline segment.

    source_index is the index of the generating polyline segment
    (vertices[source_index] -> vertices[source_index + 1]).
    """

    p0: Pixel
    p1: Pixel
    source_index: int


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
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def camera_point(p_m, t_vm: Pose, cam: CameraModel) -> np.ndarray:
    """Map-frame point (3,) or points (N, 3) expressed in the camera frame."""
    return act(cam.t_cv, act(t_vm, p_m))


def pinhole(q: np.ndarray, cam: CameraModel) -> np.ndarray:
    """Pixel coordinates (..., 2) of camera-frame points (..., 3) in front of the camera."""
    return (cam.fx, cam.fy) * q[..., :2] / q[..., 2:] + (cam.cx, cam.cy)


def project_point(p_m, t_vm: Pose, cam: CameraModel) -> Pixel:
    """Perspective projection of a map-frame point; may land outside the image."""
    q = camera_point(p_m, t_vm, cam)
    if q[2] <= NEAR_PLANE:
        raise BehindCamera(f"depth {q[2]:.4f} <= {NEAR_PLANE}")
    return Pixel(*pinhole(q, cam))


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


def project_polyline(vertices, t_vm: Pose, cam: CameraModel) -> list[ImageSegment]:
    """Project a map-frame polyline, clipping against the near plane and image rectangle.

    Returns one ImageSegment per (partially) visible polyline segment;
    an empty list means the polyline is fully invisible.
    """
    vertices = np.asarray(vertices, dtype=float)
    if len(vertices) < 2:
        raise ValueError("polyline needs at least 2 vertices")
    out = []
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
        out.append(ImageSegment(Pixel(*q0), Pixel(*q1), i))
    return out


def line_x_at_y(line: ImageLine, y_i) -> np.ndarray:
    """Column coordinates where the line crosses the given rows."""
    y_i = np.asarray(y_i, dtype=float).reshape(-1)
    dv = line.p1.v - line.p0.v
    if abs(dv) <= 1e-6:
        raise HorizontalLine("line is horizontal in image space")
    du = line.p1.u - line.p0.u
    return line.p0.u + (y_i - line.p0.v) * du / dv


def pixel_jacobian_wrt_camera_point(q: np.ndarray, cam: CameraModel) -> np.ndarray:
    """2x3 Jacobian of the pinhole map at camera-frame point q."""
    x, y, z = q
    return np.array(
        [
            [cam.fx / z, 0.0, -cam.fx * x / (z * z)],
            [0.0, cam.fy / z, -cam.fy * y / (z * z)],
        ]
    )


def point_projection_jacobian(p_m, t_vm: Pose, cam: CameraModel) -> np.ndarray:
    """2x6 Jacobian of the projected pixel w.r.t. a left pose perturbation.

    Perturbation convention: T_vm <- exp(dxi^) T_vm with dxi = (drho; dphi).
    """
    p_v = act(t_vm, p_m)
    q = act(cam.t_cv, p_v)
    if q[2] <= NEAR_PLANE:
        raise BehindCamera(f"depth {q[2]:.4f} <= {NEAR_PLANE}")
    dpix_dq = pixel_jacobian_wrt_camera_point(q, cam)
    dq_dxi = cam.t_cv.rotation @ np.hstack([np.eye(3), -so3_wedge(p_v)])
    return dpix_dq @ dq_dxi
