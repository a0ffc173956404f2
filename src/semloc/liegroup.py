"""Minimal SE(3)/SO(3) toolbox used by every other module.

Conventions, fixed once and used everywhere:
  * Twists are ordered (rho; phi): translation block first, rotation second.
  * Perturbations are applied on the left: T <- exp(dxi^) @ T.
  * Small-angle code paths switch to a 4-term Taylor series below
    SMALL_ANGLE to avoid catastrophic cancellation.

All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SMALL_ANGLE = 1e-8

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
class Twist:
    """Element (rho; phi) of se(3); units depend on context (m or m/s, rad or rad/s)."""

    rho: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float).reshape(3).copy()
        phi = np.asarray(self.phi, dtype=float).reshape(3).copy()
        if not (np.isfinite(rho).all() and np.isfinite(phi).all()):
            raise ValueError("twist entries must be finite")
        rho.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def from_vector(cls, v) -> "Twist":
        v = np.asarray(v, dtype=float).reshape(6)
        return cls(v[:3], v[3:])

    @classmethod
    def zero(cls) -> "Twist":
        return cls(np.zeros(3), np.zeros(3))

    @property
    def vec(self) -> np.ndarray:
        return np.concatenate([self.rho, self.phi])


@dataclass(frozen=True)
class Pose:
    """4x4 homogeneous rigid transform on SE(3); translation in metres."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.shape != (4, 4):
            raise ValueError(f"pose must be 4x4, got {t.shape}")
        r = _check_rotation(t[:3, :3])
        fixed = np.eye(4)
        fixed[:3, :3] = r
        fixed[:3, 3] = t[:3, 3]
        if not np.isfinite(fixed).all():
            raise ValueError("pose entries must be finite")
        fixed.flags.writeable = False
        object.__setattr__(self, "t", fixed)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(4))

    @classmethod
    def from_rt(cls, r, trans) -> "Pose":
        m = np.eye(4)
        m[:3, :3] = np.asarray(r, dtype=float)
        m[:3, 3] = np.asarray(trans, dtype=float).reshape(3)
        return cls(m)

    @property
    def rotation(self) -> np.ndarray:
        return self.t[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.t[:3, 3]


def so3_wedge(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float).reshape(3)
    return np.array(
        [
            [0.0, -phi[2], phi[1]],
            [phi[2], 0.0, -phi[0]],
            [-phi[1], phi[0], 0.0],
        ]
    )


def se3_wedge(xi: Twist) -> np.ndarray:
    m = np.zeros((4, 4))
    m[:3, :3] = so3_wedge(xi.phi)
    m[:3, 3] = xi.rho
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


def exp_se3(xi: Twist) -> Pose:
    """Closed-form exponential map: Rodrigues rotation + left-Jacobian translation."""
    r = so3_exp(xi.phi)
    trans = so3_left_jacobian(xi.phi) @ xi.rho
    return Pose.from_rt(r, trans)


def log_se3(pose: Pose) -> Twist:
    """Inverse of exp_se3; raises NearPiRotation within 1e-6 of pi."""
    phi = so3_log(pose.rotation)
    rho = so3_left_jacobian_inv(phi) @ pose.translation
    return Twist(rho, phi)


def compose(a: Pose, b: Pose) -> Pose:
    return Pose(a.t @ b.t)


def inverse(a: Pose) -> Pose:
    rt = a.rotation.T
    return Pose.from_rt(rt, -rt @ a.translation)


def act(a: Pose, p) -> np.ndarray:
    """Apply the pose to a point (3,) or to the rows of points (N, 3)."""
    return np.asarray(p, dtype=float) @ a.rotation.T + a.translation


def adjoint(pose: Pose) -> np.ndarray:
    """6x6 adjoint: exp((Ad_T xi)^) = T exp(xi^) T^{-1}, (rho; phi) ordering."""
    r = pose.rotation
    out = np.zeros((6, 6))
    out[:3, :3] = r
    out[:3, 3:] = so3_wedge(pose.translation) @ r
    out[3:, 3:] = r
    return out


def se3_curly_wedge(xi: Twist) -> np.ndarray:
    """ad operator of se(3) as a 6x6 matrix."""
    out = np.zeros((6, 6))
    pw = so3_wedge(xi.phi)
    out[:3, :3] = pw
    out[:3, 3:] = so3_wedge(xi.rho)
    out[3:, 3:] = pw
    return out


def se3_left_jacobian(xi: Twist) -> np.ndarray:
    """Left Jacobian of SE(3) via the convergent series sum ad^n / (n+1)!."""
    ad = se3_curly_wedge(xi)
    term = np.eye(6)
    total = np.eye(6)
    for n in range(1, 60):
        term = term @ ad / (n + 1.0)
        total = total + term
        if np.abs(term).max() < 1e-18:
            break
    return total


def se3_left_jacobian_inv(xi: Twist) -> np.ndarray:
    return np.linalg.inv(se3_left_jacobian(xi))
