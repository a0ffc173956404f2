"""Modified IEKF over (vehicle pose, body velocity, GPS-to-map offset).

Prediction follows a white-noise-on-acceleration motion prior with a
random-walk offset; correction is an iterated Gauss-Newton solve over all
measurements of the current time step, with Cauchy reweighting of the
semantic-cue terms.

State block order throughout: dx = (dxi_vm, dvarpi, dxi_gm) in R^18.
All pose linearizations use the left perturbation T <- exp(dxi^) T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import LaneMatch, LightMatch
from .geometry import (
    BehindCamera,
    CameraModel,
    DegenerateLine,
    HorizontalLine,
    ImageLine,
    NEAR_PLANE,
    line_x_at_y,
    camera_point,
    point_projection_jacobian,
    project_point,
)
from .liegroup import (
    Pose,
    Twist,
    adjoint,
    compose,
    exp_se3,
    inverse,
    log_se3,
    se3_left_jacobian,
    se3_left_jacobian_inv,
)
from .semantic_map import SemanticMap

STATE_DIM = 18
MAX_HALVINGS = 5  # line-search step halvings per GN iteration
COND_LIMIT = 1e12  # largest accepted condition number of the normal equations


class SingularNormalEquations(RuntimeError):
    """Normal equations condition number beyond the limit (unobservable setup)."""


class UnknownLandmark(KeyError):
    """Matched landmark id not present in the map."""


@dataclass(frozen=True)
class NoiseConfig:
    q_c: np.ndarray  # 6x6 WNOA power spectral density
    q_gm: np.ndarray  # 6x6 offset random walk covariance per second
    r_vg: np.ndarray  # 6x6 GPS
    r_light: np.ndarray  # 2x2
    r_lane: np.ndarray  # 2x2
    r_wheel: np.ndarray  # 2x2
    r_pseudo: np.ndarray  # (4,) variances: elevation, roll, pitch, lateral velocity

    def __post_init__(self):
        for name, shape in (("q_c", (6, 6)), ("q_gm", (6, 6)), ("r_vg", (6, 6)),
                            ("r_light", (2, 2)), ("r_lane", (2, 2)),
                            ("r_wheel", (2, 2))):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            if np.abs(m - m.T).max() > 1e-9:
                raise ValueError(f"{name} must be symmetric")
            object.__setattr__(self, name, m)
        r_pseudo = np.asarray(self.r_pseudo, dtype=float).reshape(4)
        if (r_pseudo <= 0).any():
            raise ValueError("pseudo-measurement variances must be positive")
        object.__setattr__(self, "r_pseudo", r_pseudo)

    @classmethod
    def default(cls) -> "NoiseConfig":
        return cls(
            q_c=np.diag([0.5, 1e-6, 1e-6, 1e-6, 1e-6, 0.1]),
            q_gm=np.diag([1e-6] * 3 + [1e-8] * 3),
            r_vg=np.diag([0.09, 0.09, 0.09, 1e-4, 1e-4, 1e-4]),
            r_light=np.diag([4.0, 4.0]),
            r_lane=np.diag([4.0, 4.0]),
            r_wheel=np.diag([2.5e-3, 2.5e-5]),
            r_pseudo=np.array([1e-4, 1e-4, 1e-4, 1e-4]),
        )


@dataclass(frozen=True)
class EstimatorState:
    t_vm: Pose  # vehicle-from-map
    varpi: Twist  # body velocity
    t_gm: Pose  # GPS-from-map offset
    cov: np.ndarray  # 18x18, block order (dxi_vm, dvarpi, dxi_gm)

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (STATE_DIM, STATE_DIM):
            raise ValueError("covariance must be 18x18")
        if np.abs(cov - cov.T).max() > 1e-9:
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class MeasurementBundle:
    """One time step's associated measurements, ready for correct()."""

    dt: float
    gps: Pose | None = None
    light_matches: tuple = ()
    lane_matches: tuple = ()  # entries: (LaneMatch, y_rows 2-vector)
    wheel: tuple | None = None  # (v m/s, omega rad/s)
    # Planar pseudo-measurements are applied at every step, dropouts included;
    # disabling them yields a pure prior/sensor problem (used by tests).
    use_pseudo: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "light_matches", tuple(self.light_matches))
        object.__setattr__(self, "lane_matches", tuple(self.lane_matches))
        for _, y_rows in self.lane_matches:
            y = np.asarray(y_rows, dtype=float).reshape(2)
            if abs(y[0] - y[1]) <= 1e-9:
                raise ValueError("lane measurement rows must be distinct")


@dataclass(frozen=True)
class GaussNewtonOptions:
    tol: float = 1e-6
    max_iters: int = 10


def process_covariance(q_c: np.ndarray, dt: float) -> np.ndarray:
    """12x12 WNOA process noise [[dt^3/3 Qc, dt^2/2 Qc], [dt^2/2 Qc, dt Qc]]."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    q_c = np.asarray(q_c, dtype=float)
    top = dt ** 3 / 3.0 * q_c
    off = dt ** 2 / 2.0 * q_c
    bot = dt * q_c
    return np.block([[top, off], [off, bot]])


def transition_jacobian(varpi: Twist, dt: float) -> np.ndarray:
    """18x18 linearized transition under the left perturbation convention."""
    step = Twist.from_vector(dt * varpi.vec)
    f = np.eye(STATE_DIM)
    f[0:6, 0:6] = adjoint(exp_se3(step))
    f[0:6, 6:12] = dt * se3_left_jacobian(step)
    return f


def predict(state: EstimatorState, dt: float, noise: NoiseConfig) -> EstimatorState:
    """Propagate the mean and covariance over dt (offset mean unchanged)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    step = Twist.from_vector(dt * state.varpi.vec)
    t_vm = compose(exp_se3(step), state.t_vm)
    f = transition_jacobian(state.varpi, dt)
    q = np.zeros((STATE_DIM, STATE_DIM))
    q[0:12, 0:12] = process_covariance(noise.q_c, dt)
    q[12:18, 12:18] = noise.q_gm * dt
    cov = f @ state.cov @ f.T + q
    cov = 0.5 * (cov + cov.T)
    return EstimatorState(t_vm, state.varpi, state.t_gm, cov)


def init_state(gps_first: Pose, offset_guess: Pose, cov0: np.ndarray) -> EstimatorState:
    """Bootstrap from the first GPS fix: T_vm = T_vg @ T_gm(guess)."""
    return EstimatorState(
        t_vm=compose(gps_first, offset_guess),
        varpi=Twist.zero(),
        t_gm=offset_guess,
        cov=np.asarray(cov0, dtype=float),
    )


# ---------------------------------------------------------------------------
# Measurement error functions and analytic Jacobians.


def gps_error(t_vg_meas: Pose, t_vm: Pose, t_gm: Pose) -> np.ndarray:
    """log(T_meas (T_vm T_gm^-1)^-1); zero iff the triple is consistent."""
    predicted = compose(t_vm, inverse(t_gm))
    return log_se3(compose(t_vg_meas, inverse(predicted))).vec


def _gps_jacobian(t_vg_meas: Pose, t_vm: Pose, t_gm: Pose):
    err_pose = compose(t_vg_meas, compose(t_gm, inverse(t_vm)))
    e = log_se3(err_pose).vec
    jl_inv = se3_left_jacobian_inv(Twist.from_vector(e))
    h = np.zeros((6, STATE_DIM))
    h[:, 0:6] = -jl_inv @ adjoint(err_pose)
    h[:, 12:18] = jl_inv @ adjoint(t_vg_meas)
    return e, h


def light_error(match: LightMatch, t_vm: Pose, smap: SemanticMap,
                cam: CameraModel) -> np.ndarray:
    """Reprojection residual: detection pixel minus projected map light."""
    try:
        light = smap.light_by_id(match.light_id)
    except KeyError as exc:
        raise UnknownLandmark(match.light_id) from exc
    proj = project_point(light.position, t_vm, cam)
    return match.detection.vec - proj.vec


def _light_jacobian(match: LightMatch, t_vm: Pose, smap: SemanticMap,
                    cam: CameraModel):
    e = light_error(match, t_vm, smap, cam)
    light = smap.light_by_id(match.light_id)
    h = np.zeros((2, STATE_DIM))
    h[:, 0:6] = -point_projection_jacobian(light.position, t_vm, cam)
    return e, h


def _lane_segment_pixels(match: LaneMatch, t_vm: Pose, cam: CameraModel):
    """Endpoints of the projected lane line at the current pose.

    The match's map-frame segment is re-projected each call (clipped at the
    near plane; clipping slides a defining point along the same image line,
    so the line is unaffected).
    """
    pa = np.asarray(match.segment_map[0], dtype=float)
    pb = np.asarray(match.segment_map[1], dtype=float)
    qa = camera_point(pa, t_vm, cam)
    qb = camera_point(pb, t_vm, cam)
    near = NEAR_PLANE + 1e-6
    if qa[2] <= near and qb[2] <= near:
        raise BehindCamera("lane segment behind camera")
    if qa[2] <= near:
        s = (near - qa[2]) / (qb[2] - qa[2])
        pa = pa + s * (pb - pa)
    elif qb[2] <= near:
        s = (near - qb[2]) / (qa[2] - qb[2])
        pb = pb + s * (pa - pb)
    return (project_point(pa, t_vm, cam), project_point(pb, t_vm, cam), pa, pb)


def lane_error(match: LaneMatch, y_rows, t_vm: Pose, cam: CameraModel) -> np.ndarray:
    """Horizontal offsets between the fitted detection line and the projection."""
    y = np.asarray(y_rows, dtype=float).reshape(2)
    a, b, _, _ = _lane_segment_pixels(match, t_vm, cam)
    projected = ImageLine(a, b)
    x_fit = line_x_at_y(match.fitted, y)
    x_proj = line_x_at_y(projected, y)
    return x_fit - x_proj


def _lane_jacobian(match: LaneMatch, y_rows, t_vm: Pose, cam: CameraModel):
    y = np.asarray(y_rows, dtype=float).reshape(2)
    a, b, pa, pb = _lane_segment_pixels(match, t_vm, cam)
    projected = ImageLine(a, b)
    e = line_x_at_y(match.fitted, y) - line_x_at_y(projected, y)
    dv = b.v - a.v
    du = b.u - a.u
    # d x(y) / d (a_u, a_v, b_u, b_v) for each requested row
    m = np.zeros((2, 4))
    for j in range(2):
        s = (y[j] - a.v) / dv
        m[j, 0] = 1.0 - s
        m[j, 1] = du * (y[j] - b.v) / (dv * dv)
        m[j, 2] = s
        m[j, 3] = -du * (y[j] - a.v) / (dv * dv)
    ja = point_projection_jacobian(pa, t_vm, cam)
    jb = point_projection_jacobian(pb, t_vm, cam)
    h = np.zeros((2, STATE_DIM))
    h[:, 0:6] = -m @ np.vstack([ja, jb])
    return e, h


def wheel_error(meas, varpi: Twist) -> np.ndarray:
    """(v, omega) measurement minus the matching velocity components."""
    v, omega = meas
    return np.array([v - varpi.rho[0], omega - varpi.phi[2]])


_WHEEL_H = np.zeros((2, STATE_DIM))
_WHEEL_H[0, 6] = -1.0
_WHEEL_H[1, 11] = -1.0


def pseudo_errors(t_vm: Pose, varpi: Twist) -> np.ndarray:
    """Soft-constrained quantities: map elevation, roll, pitch, lateral velocity."""
    r_mv = t_vm.rotation.T
    origin = -r_mv @ t_vm.translation  # vehicle origin in the map frame
    pitch = -np.arcsin(np.clip(r_mv[2, 0], -1.0, 1.0))
    roll = np.arctan2(r_mv[2, 1], r_mv[2, 2])
    return np.array([origin[2], roll, pitch, varpi.rho[1]])


def _pseudo_jacobian(t_vm: Pose, varpi: Twist):
    e = pseudo_errors(t_vm, varpi)
    r_mv = t_vm.rotation.T
    h = np.zeros((4, STATE_DIM))
    # elevation: d origin / d drho = -R_mv, no rotation sensitivity
    h[0, 0:3] = -r_mv[2, :]
    # dR_mv[i, j] / d dphi = -(e_j x row_i(R_mv))
    row2 = r_mv[2, :]
    basis = np.eye(3)
    d_m = {j: -np.cross(basis[j], row2) for j in range(3)}
    m21, m22 = r_mv[2, 1], r_mv[2, 2]
    denom = m21 * m21 + m22 * m22
    h[1, 3:6] = (m22 * d_m[1] - m21 * d_m[2]) / denom
    m20 = r_mv[2, 0]
    h[2, 3:6] = -d_m[0] / np.sqrt(max(1.0 - m20 * m20, 1e-12))
    h[3, 7] = 1.0
    return e, h


# ---------------------------------------------------------------------------
# Robust iterated correction.


def cauchy_information(e: np.ndarray, r_inv: np.ndarray) -> np.ndarray:
    """Cauchy M-estimator information: R^-1 / (1 + e^T R^-1 e)."""
    e = np.atleast_1d(np.asarray(e, dtype=float))
    r_inv = np.atleast_2d(np.asarray(r_inv, dtype=float))
    return r_inv / (1.0 + float(e @ r_inv @ e))


def apply_perturbation(t_vm: Pose, varpi: Twist, t_gm: Pose, dx: np.ndarray):
    """x <- x (+) dx with left pose updates; used by correct() and test oracles."""
    dx = np.asarray(dx, dtype=float).reshape(STATE_DIM)
    return (
        compose(exp_se3(Twist.from_vector(dx[0:6])), t_vm),
        Twist.from_vector(varpi.vec + dx[6:12]),
        compose(exp_se3(Twist.from_vector(dx[12:18])), t_gm),
    )


def _prior_terms(t_vm, varpi, t_gm, pred: EstimatorState):
    """Prior residual (log-map against predicted means) and its Jacobian E."""
    e_vm_pose = compose(t_vm, inverse(pred.t_vm))
    e_gm_pose = compose(t_gm, inverse(pred.t_gm))
    e_vm = log_se3(e_vm_pose).vec
    e_gm = log_se3(e_gm_pose).vec
    e = np.concatenate([e_vm, varpi.vec - pred.varpi.vec, e_gm])
    big_e = np.eye(STATE_DIM)
    big_e[0:6, 0:6] = se3_left_jacobian_inv(Twist.from_vector(e_vm))
    big_e[12:18, 12:18] = se3_left_jacobian_inv(Twist.from_vector(e_gm))
    return e, big_e


def _measurement_terms(t_vm, varpi, t_gm, bundle: MeasurementBundle,
                       smap, cam, noise: NoiseConfig):
    """List of (error, jacobian, base information, robust flag)."""
    terms = []
    if bundle.gps is not None:
        e, h = _gps_jacobian(bundle.gps, t_vm, t_gm)
        terms.append((e, h, np.linalg.inv(noise.r_vg), False))
    r_light_inv = np.linalg.inv(noise.r_light)
    for match in bundle.light_matches:
        try:
            e, h = _light_jacobian(match, t_vm, smap, cam)
        except BehindCamera:
            continue
        terms.append((e, h, r_light_inv, True))
    r_lane_inv = np.linalg.inv(noise.r_lane)
    for match, y_rows in bundle.lane_matches:
        try:
            e, h = _lane_jacobian(match, y_rows, t_vm, cam)
        except (BehindCamera, HorizontalLine, DegenerateLine):
            continue
        terms.append((e, h, r_lane_inv, True))
    if bundle.wheel is not None:
        e = wheel_error(bundle.wheel, varpi)
        terms.append((e, _WHEEL_H, np.linalg.inv(noise.r_wheel), False))
    if bundle.use_pseudo:
        e, h = _pseudo_jacobian(t_vm, varpi)
        terms.append((e, h, np.diag(1.0 / noise.r_pseudo), False))
    return terms


def _objective(prior, terms, p_inv, weights):
    """GN objective with the Cauchy weights frozen at the linearization point."""
    e_v, _ = prior
    total = 0.5 * float(e_v @ p_inv @ e_v)
    if len(terms) != len(weights):
        return np.inf  # a term dropped out at the trial point; reject the step
    for (e, _, _, _), w in zip(terms, weights):
        total += 0.5 * float(e @ w @ e)
    return total


def _normal_equations(prior, terms, p_inv):
    """Gauss-Newton normal equations A dx = b at the operating point.

    Returns (A, b, weights): the weights are the information matrices of
    the measurement terms, Cauchy-weighted for the robust ones.
    """
    e_v, big_e = prior
    weights = [
        cauchy_information(e, r_inv) if robust else r_inv
        for e, _, r_inv, robust in terms
    ]
    a_mat = big_e.T @ p_inv @ big_e
    b_vec = -(big_e.T @ p_inv @ e_v)
    for (e, h, _, _), w in zip(terms, weights):
        a_mat = a_mat + h.T @ w @ h
        b_vec = b_vec - h.T @ w @ e
    return a_mat, b_vec, weights


def correct(state_pred: EstimatorState, bundle: MeasurementBundle,
            smap: SemanticMap, cam: CameraModel, noise: NoiseConfig,
            opts: GaussNewtonOptions | None = None,
            diagnostics: list | None = None) -> EstimatorState:
    """Iterated Gauss-Newton correction over the current time step.

    Semantic-cue information matrices are replaced by their Cauchy-weighted
    versions, re-evaluated each iteration. The step is halved (up to
    MAX_HALVINGS times) whenever it would increase the frozen-weight
    objective, so accepted iterates never increase it. Each visited state is
    evaluated once: an accepted trial's terms are the next linearization point.
    """
    opts = opts or GaussNewtonOptions()
    p_inv = np.linalg.inv(state_pred.cov)
    p_inv = 0.5 * (p_inv + p_inv.T)

    def evaluate(x):
        return (_prior_terms(*x, state_pred),
                _measurement_terms(*x, bundle, smap, cam, noise))

    x = (state_pred.t_vm, state_pred.varpi, state_pred.t_gm)
    prior, terms = evaluate(x)
    for _ in range(opts.max_iters):
        a_mat, b_vec, weights = _normal_equations(prior, terms, p_inv)
        if np.linalg.cond(a_mat) > COND_LIMIT:
            raise SingularNormalEquations("normal equations are ill-conditioned")
        dx = np.linalg.solve(a_mat, b_vec)

        j0 = _objective(prior, terms, p_inv, weights)
        alpha = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = apply_perturbation(*x, alpha * dx)
            trial_prior, trial_terms = evaluate(trial)
            j1 = _objective(trial_prior, trial_terms, p_inv, weights)
            if j1 <= j0 + 1e-15:
                break
            alpha *= 0.5
        else:
            break  # no step size decreased the objective
        x, prior, terms = trial, trial_prior, trial_terms
        if diagnostics is not None:
            diagnostics.append((j0, j1))
        if np.linalg.norm(alpha * dx) < opts.tol:
            break

    # Posterior covariance from the normal equations at the accepted point.
    a_mat, _, _ = _normal_equations(prior, terms, p_inv)
    cov = np.linalg.inv(a_mat)
    cov = 0.5 * (cov + cov.T)
    return EstimatorState(*x, cov)
