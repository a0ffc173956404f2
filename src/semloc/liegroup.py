"""Minimal SE(3)/SO(3) toolbox used by every other module.

Conventions, fixed once and used everywhere:
  * A twist is a (6,) float array ordered (rho; phi): translation block
    first, rotation second.
  * Perturbations are applied on the left: T <- exp(dxi^) @ T.
  * Small-angle code paths switch to a 4-term Taylor series below
    SMALL_ANGLE = 1e-2. Just above a lower switch, (1 - cos t)/t^2 and
    (t - sin t)/t^3 cancel catastrophically: with the switch at 1e-8,
    log(exp(xi)) missed xi by up to 6.8e-9 relative. At 1e-2 the first
    omitted series term is below 1e-21, so the series is exact to double
    precision, and the round trip stays within 6e-15 at every angle.

Poses are immutable. Only the public constructors (`Pose(m)`, `from_rt`,
`identity`) check the rotation block; `compose`, `inverse` and `exp_se3`
build their results unchecked. The SE(3) left Jacobians are closed forms
(Barfoot, State Estimation for Robotics, 2017, sec. 7.1.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SMALL_ANGLE = 1e-2

# Rotation blocks are re-orthonormalized (polar projection) when the
# orthogonality residual exceeds this; grossly invalid inputs are rejected.
_ORTHO_FIX = 1e-7
_ORTHO_REJECT = 1e-3


class NearPiRotation(ValueError):
    """Rotation angle within 1e-6 of pi: the log map axis is ill-conditioned."""


def _polar_project(r: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(r)
    out = u @ vt
    if np.linalg.det(out) < 0:
        out = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return out


def _check_rotation(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    resid = np.abs(r @ r.T - np.eye(3)).max()
    if resid > _ORTHO_REJECT or np.linalg.det(r) < 0:
        raise ValueError("matrix is not close to a rotation")
    if resid > _ORTHO_FIX:
        r = _polar_project(r)
    return r


@dataclass(frozen=True)
class Pose:
    """4x4 homogeneous rigid transform on SE(3); translation in metres."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.shape != (4, 4):
            raise ValueError(f"pose must be 4x4, got {t.shape}")
        fixed = _matrix(_check_rotation(t[:3, :3]), t[:3, 3])
        if not np.isfinite(fixed).all():
            raise ValueError("pose entries must be finite")
        object.__setattr__(self, "t", fixed)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(4))

    @classmethod
    def from_rt(cls, r, trans) -> "Pose":
        return cls(_matrix(r, np.reshape(trans, 3)))

    @property
    def rotation(self) -> np.ndarray:
        return self.t[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.t[:3, 3]


def _matrix(r, trans) -> np.ndarray:
    """Read-only 4x4 rigid transform [[r, trans], [0, 1]]."""
    m = np.eye(4)
    m[:3, :3] = r
    m[:3, 3] = trans
    m.flags.writeable = False
    return m


def _pose(r, trans) -> Pose:
    """Unchecked pose from blocks computed from valid poses and twists."""
    pose = object.__new__(Pose)
    object.__setattr__(pose, "t", _matrix(r, trans))
    return pose


def so3_wedge(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float).reshape(3)
    return np.array(
        [
            [0.0, -phi[2], phi[1]],
            [phi[2], 0.0, -phi[0]],
            [-phi[1], phi[0], 0.0],
        ]
    )


def se3_wedge(xi) -> np.ndarray:
    m = np.zeros((4, 4))
    m[:3, :3] = so3_wedge(xi[3:])
    m[:3, 3] = xi[:3]
    return m


def so3_exp(phi) -> np.ndarray:
    """Rodrigues formula with Taylor fallback below SMALL_ANGLE."""
    phi = np.asarray(phi, dtype=float).reshape(3)
    theta = np.linalg.norm(phi)
    w = so3_wedge(phi)
    if theta < SMALL_ANGLE:
        # 4-term series in theta^2 for sin(t)/t and (1-cos t)/t^2
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 * t2 * t2 / 5040.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0 - t2 * t2 * t2 / 40320.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * w + b * (w @ w)


def so3_left_jacobian(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float).reshape(3)
    theta = np.linalg.norm(phi)
    w = so3_wedge(phi)
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0 - t2 * t2 * t2 / 40320.0
        c = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0 - t2 * t2 * t2 / 362880.0
    else:
        b = (1.0 - np.cos(theta)) / (theta * theta)
        c = (theta - np.sin(theta)) / (theta ** 3)
    return np.eye(3) + b * w + c * (w @ w)


def so3_left_jacobian_inv(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float).reshape(3)
    theta = np.linalg.norm(phi)
    w = so3_wedge(phi)
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        c = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0 + t2 * t2 * t2 / 1209600.0
    else:
        c = 1.0 / (theta * theta) - (1.0 + np.cos(theta)) / (
            2.0 * theta * np.sin(theta)
        )
    return np.eye(3) - 0.5 * w + c * (w @ w)


def so3_log(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    cos_theta = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if theta > np.pi - 1e-6:
        raise NearPiRotation(f"rotation angle {theta} too close to pi")
    skew = 0.5 * (r - r.T)
    vee = np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        # theta / sin(theta) expanded
        factor = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0 + 31.0 * t2 ** 3 / 15120.0
    else:
        factor = theta / np.sin(theta)
    return factor * vee


def exp_se3(xi) -> Pose:
    """Closed-form exponential map: Rodrigues rotation + left-Jacobian translation."""
    xi = np.asarray(xi, dtype=float)
    return _pose(so3_exp(xi[3:]), so3_left_jacobian(xi[3:]) @ xi[:3])


def log_se3(pose: Pose) -> np.ndarray:
    """Inverse of exp_se3; raises NearPiRotation within 1e-6 of pi."""
    phi = so3_log(pose.rotation)
    rho = so3_left_jacobian_inv(phi) @ pose.translation
    return np.concatenate([rho, phi])


def compose(a: Pose, b: Pose) -> Pose:
    m = a.t @ b.t
    return _pose(m[:3, :3], m[:3, 3])


def inverse(a: Pose) -> Pose:
    rt = a.rotation.T
    return _pose(rt, -rt @ a.translation)


def act(a: Pose, p) -> np.ndarray:
    """Apply the pose to a point (3,) or to the rows of points (N, 3)."""
    return np.asarray(p, dtype=float) @ a.rotation.T + a.translation


def _upper_triangular(diag: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """6x6 [[diag, corner], [0, diag]] of 3x3 blocks."""
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = diag
    out[:3, 3:] = corner
    return out


def adjoint(pose: Pose) -> np.ndarray:
    """6x6 adjoint: exp((Ad_T xi)^) = T exp(xi^) T^{-1}, (rho; phi) ordering."""
    r = pose.rotation
    return _upper_triangular(r, so3_wedge(pose.translation) @ r)


def _se3_q(xi) -> np.ndarray:
    """Q(rho, phi), the corner block of the SE(3) left Jacobian."""
    xi = np.asarray(xi, dtype=float)
    rw, pw = so3_wedge(xi[:3]), so3_wedge(xi[3:])
    theta = np.linalg.norm(xi[3:])
    t2 = theta * theta
    if theta < SMALL_ANGLE:
        a = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0 - t2 * t2 * t2 / 362880.0
        b = 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0 - t2 * t2 * t2 / 3628800.0
        c = 1.0 / 120.0 - t2 / 2520.0 + t2 * t2 / 120960.0 - t2 * t2 * t2 / 9979200.0
    else:
        s = np.sin(theta)
        a = (theta - s) / theta ** 3
        # cos - 1 as -2 sin^2(theta/2), which does not cancel against 1
        b = (0.5 * t2 - 2.0 * np.sin(0.5 * theta) ** 2) / (t2 * t2)
        c = (2.0 * theta - 3.0 * s + theta * np.cos(theta)) / (2.0 * theta ** 5)
    pr, rp = pw @ rw, rw @ pw
    prp = pr @ pw
    return (0.5 * rw + a * (pr + rp + prp) + b * (pw @ pr + rp @ pw - 3.0 * prp)
            + c * (prp @ pw + pw @ prp))


def se3_left_jacobian(xi) -> np.ndarray:
    """Left Jacobian of SE(3), [[J, Q], [0, J]] with J that of SO(3) at phi."""
    return _upper_triangular(so3_left_jacobian(xi[3:]), _se3_q(xi))


def se3_left_jacobian_inv(xi) -> np.ndarray:
    """Inverse left Jacobian of SE(3), [[J^-1, -J^-1 Q J^-1], [0, J^-1]]."""
    j_inv = so3_left_jacobian_inv(xi[3:])
    return _upper_triangular(j_inv, -j_inv @ _se3_q(xi) @ j_inv)
