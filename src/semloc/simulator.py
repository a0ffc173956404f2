"""Deterministic synthetic world, trajectory, and sensor synthesis.

The world is a rectangular road grid on the z=0 plane; the vehicle loops a
city block on lane centers with straight segments and constant-rate turns.
Sensor frames carry raw detections (pixels, not matches) so the data
association stage is exercised end to end.

Randomness is counter-based: every sample stream is keyed by
(seed, frame index, channel), so adding a channel never perturbs others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraModel, NEAR_PLANE, Pixel, camera_point, pinhole
from .liegroup import Pose, Twist, compose, exp_se3, inverse
from .semantic_map import LaneBoundary, SemanticMap, TrafficLight, nearby_lanes, nearby_lights

_CH_GPS = 0
_CH_LIGHT = 1
_CH_LANE = 2
_CH_WHEEL = 3
_CH_OUTLIER = 4
_CH_DRIFT = 5

# World and sensor geometry shared by every scenario.
LIGHT_HEIGHT = 5.0  # m
LIGHT_CORNER_OFFSET = 6.0  # m from the intersection center, per axis
LANE_SAMPLE_STEP = 1.0  # m between synthesized lane pixels
MAX_DETECTION_RANGE = 60.0  # m
LIGHT_VISIBILITY_RADIUS = 100.0  # m
LANE_VISIBILITY_RADIUS = 50.0  # m


@dataclass(frozen=True)
class Scenario:
    seed: int = 0
    duration: float = 120.0  # s
    rate: float = 10.0  # Hz
    offset_true: Pose = field(default_factory=Pose.identity)  # GPS-from-map
    dropout_schedule: tuple = ()  # (start, end) seconds, half-open intervals
    detection_noise_px: float = 1.0
    gps_noise_trans_std: float = 0.3  # m per axis
    gps_noise_rot_std: float = 0.01  # rad per axis
    wheel_noise_v_std: float = 0.05  # m/s
    wheel_noise_w_std: float = 0.005  # rad/s
    outlier_rate: float = 0.0
    block_size: float = 120.0  # m
    lane_spacing: float = 3.5  # m between adjacent boundary lines
    speed: float = 8.0  # m/s
    turn_radius: float = 8.0  # m
    # Slow offset drift (random walk std per sqrt-second); off by default
    # since the true offset is effectively constant over one run.
    offset_drift_trans_std: float = 0.0
    offset_drift_rot_std: float = 0.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        if not self.speed > 0:
            raise ValueError("speed must be positive")
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ValueError("outlier_rate must be in [0, 1]")
        stds = ("detection_noise_px", "gps_noise_trans_std", "gps_noise_rot_std",
                "wheel_noise_v_std", "wheel_noise_w_std",
                "offset_drift_trans_std", "offset_drift_rot_std")
        negative = [name for name in stds if not getattr(self, name) >= 0]
        if negative:
            raise ValueError(f"{', '.join(negative)} must be >= 0")
        sched = tuple((float(s), float(e)) for s, e in self.dropout_schedule)
        prev_end = 0.0
        for s, e in sorted(sched):
            if s < 0 or e > self.duration or s >= e:
                raise ValueError("dropout interval outside [0, duration]")
            if s < prev_end:
                raise ValueError("dropout intervals overlap")
            prev_end = e
        object.__setattr__(self, "dropout_schedule", sched)

    @property
    def dt(self) -> float:
        return 1.0 / self.rate

    @property
    def n_frames(self) -> int:
        return int(round(self.duration * self.rate))

    def gps_dropped(self, t: float) -> bool:
        return any(s <= t < e for s, e in self.dropout_schedule)


@dataclass(frozen=True)
class GroundTruthFrame:
    t: float
    t_vm_true: Pose
    varpi_true: Twist


@dataclass(frozen=True)
class SensorFrame:
    """One timestamp's raw sensor bundle, pre data association."""

    t: float
    gps: Pose | None
    light_pixels: tuple
    lane_pixels: tuple
    wheel: tuple  # (v, omega)


def _rng(scenario: Scenario, frame: int, channel: int) -> np.random.Generator:
    return np.random.default_rng((scenario.seed, frame, channel))


def generate_world(scenario: Scenario) -> SemanticMap:
    """Single-block road grid with boundary triples and corner-mounted lights."""
    b = scenario.block_size
    s = scenario.lane_spacing
    margin = 30.0
    lanes = []
    lane_id = 0

    def add_line(p0, p1):
        nonlocal lane_id
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        n = max(2, int(np.ceil(np.linalg.norm(p1 - p0) / 25.0)) + 1)
        pts = np.linspace(p0, p1, n)
        lanes.append(LaneBoundary(lane_id, pts))
        lane_id += 1

    lo, hi = -margin, b + margin
    for y0 in (0.0, b):  # east-west roads
        for off in (-s, 0.0, s):
            add_line([lo, y0 + off, 0.0], [hi, y0 + off, 0.0])
    for x0 in (0.0, b):  # north-south roads
        for off in (-s, 0.0, s):
            add_line([x0 + off, lo, 0.0], [x0 + off, hi, 0.0])

    lights = []
    light_id = 1000
    d = LIGHT_CORNER_OFFSET
    corners = [(-d, -d), (d, -d), (-d, d), (d, d)]
    for ix in (0.0, b):
        for iy in (0.0, b):
            for cx, cy in corners:
                lights.append(
                    TrafficLight(light_id, np.array([ix + cx, iy + cy, LIGHT_HEIGHT]))
                )
                light_id += 1
    return SemanticMap(tuple(lanes), tuple(lights))


def _initial_pose(scenario: Scenario) -> Pose:
    """Start mid south side, travelling east on the outer lane center."""
    h = scenario.lane_spacing / 2.0
    origin = np.array([scenario.block_size / 2.0, -h, 0.0])
    c_vm = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    return Pose.from_rt(c_vm, -c_vm @ origin)


def generate_trajectory(scenario: Scenario, smap: SemanticMap) -> list[GroundTruthFrame]:
    """Counterclockwise block loop integrated exactly from per-frame twists.

    Each frame's varpi_true is the constant body twist applied from that
    frame to the next, so consecutive poses satisfy the process kinematics
    to machine precision.
    """
    dt = scenario.dt
    v = scenario.speed
    r = scenario.turn_radius
    b = scenario.block_size
    h = scenario.lane_spacing / 2.0
    straight = b + 2.0 * h - 2.0 * r
    first_straight = b / 2.0 + h - r

    def repeated(n, omega=0.0):
        """n frames of one body twist, each paired with its one-frame step pose."""
        twist = Twist(np.array([v, 0.0, 0.0]), np.array([0.0, 0.0, omega]))
        return [(twist, exp_se3(Twist.from_vector(dt * twist.vec)))] * n

    def straight_twists(length):
        return repeated(max(1, int(round(length / v / dt))))

    def turn_twists():
        n = max(1, int(round((np.pi / 2.0) * r / v / dt)))
        return repeated(n, -(np.pi / 2.0) / (n * dt))  # sign chosen for a CCW loop

    schedule = straight_twists(first_straight)
    lap = (turn_twists() + straight_twists(straight)) * 4
    n_frames = scenario.n_frames
    while len(schedule) < n_frames:
        schedule.extend(lap)

    frames = []
    pose = _initial_pose(scenario)
    for k in range(n_frames):
        tw, step = schedule[k]
        frames.append(GroundTruthFrame(k * dt, pose, tw))
        pose = compose(step, pose)
    return frames


def true_offsets(scenario: Scenario) -> list[Pose]:
    """Per-frame true GPS-from-map offset; constant unless drift is enabled."""
    n = scenario.n_frames
    if scenario.offset_drift_trans_std == 0.0 and scenario.offset_drift_rot_std == 0.0:
        return [scenario.offset_true] * n
    sqrt_dt = np.sqrt(scenario.dt)
    offsets = [scenario.offset_true]
    for k in range(1, n):
        rng = _rng(scenario, k, _CH_DRIFT)
        w = np.concatenate([
            rng.normal(0.0, scenario.offset_drift_trans_std * sqrt_dt, 3),
            rng.normal(0.0, scenario.offset_drift_rot_std * sqrt_dt, 3),
        ])
        offsets.append(compose(exp_se3(Twist.from_vector(w)), offsets[-1]))
    return offsets


def _visible_pixels(p_m, t_vm: Pose, cam: CameraModel, max_range: float) -> np.ndarray:
    """Pixels (M, 2) of the map points (N, 3) or point (3,) that lie within
    max_range depth in front of the camera and project inside the image, in
    point order."""
    q = camera_point(np.reshape(p_m, (-1, 3)), t_vm, cam)
    px = pinhole(q[(q[:, 2] > NEAR_PLANE) & (q[:, 2] <= max_range)], cam)
    inside = (px >= 0.0).all(axis=1) & (px < (cam.width, cam.height)).all(axis=1)
    return px[inside]


def _lane_samples(lanes) -> np.ndarray:
    """Points (N, 3) at most LANE_SAMPLE_STEP apart along each lane, in lane
    then vertex order; each lane's last vertex is its last sample."""
    if not lanes:
        return np.empty((0, 3))
    a = np.concatenate([lane.vertices[:-1] for lane in lanes])
    d = np.concatenate([np.diff(lane.vertices, axis=0) for lane in lanes])
    last = np.concatenate([np.arange(len(lane.vertices) - 1) == len(lane.vertices) - 2
                           for lane in lanes])
    n = np.maximum(2, np.ceil(np.linalg.norm(d, axis=1) / LANE_SAMPLE_STEP).astype(int) + 1)
    seg = np.repeat(np.arange(len(a)), n)
    ends = np.cumsum(n)
    # np.linspace(0, 1, n, endpoint=last) of each segment, value for value
    s = (np.arange(ends[-1]) - (ends - n)[seg]) * (1.0 / (n - last))[seg]
    s[ends[last] - 1] = 1.0
    return a[seg] + s[:, None] * d[seg]


def simulate_frame(truth: GroundTruthFrame, scenario: Scenario, smap: SemanticMap,
                   cam: CameraModel, frame_index: int,
                   t_gm_true: Pose | None = None) -> SensorFrame:
    """Synthesize one sensor frame from ground truth; pure in (scenario, frame)."""
    t_gm = t_gm_true if t_gm_true is not None else scenario.offset_true
    t_vm = truth.t_vm_true
    origin = inverse(t_vm).translation
    sigma_px = scenario.detection_noise_px

    gps = None
    if not scenario.gps_dropped(truth.t):
        rng = _rng(scenario, frame_index, _CH_GPS)
        n = np.concatenate([
            rng.normal(0.0, scenario.gps_noise_trans_std, 3),
            rng.normal(0.0, scenario.gps_noise_rot_std, 3),
        ])
        gps = compose(exp_se3(Twist.from_vector(n)),
                      compose(t_vm, inverse(t_gm)))

    out_rng = _rng(scenario, frame_index, _CH_OUTLIER)

    lights = nearby_lights(smap, origin, LIGHT_VISIBILITY_RADIUS)
    px = _visible_pixels([x.position for x in lights], t_vm, cam, LIGHT_VISIBILITY_RADIUS)
    px = px + _rng(scenario, frame_index, _CH_LIGHT).normal(0.0, sigma_px, px.shape)
    light_pixels = []
    for u, v in px.tolist():
        light_pixels.append(Pixel(u, v))
        if out_rng.random() < scenario.outlier_rate:
            light_pixels.append(Pixel(out_rng.uniform(0, cam.width),
                                      out_rng.uniform(0, cam.height)))

    samples = _lane_samples(nearby_lanes(smap, origin, LANE_VISIBILITY_RADIUS))
    in_range = np.linalg.norm(samples - origin, axis=1) <= MAX_DETECTION_RANGE
    px = _visible_pixels(samples[in_range], t_vm, cam, MAX_DETECTION_RANGE)
    px = px + _rng(scenario, frame_index, _CH_LANE).normal(0.0, sigma_px, px.shape)
    n_outliers = out_rng.binomial(len(px), scenario.outlier_rate)
    outliers = out_rng.uniform((0, 0), (cam.width, cam.height), (n_outliers, 2))
    lane_pixels = [Pixel(u, v) for u, v in np.concatenate([px, outliers]).tolist()]

    wheel_rng = _rng(scenario, frame_index, _CH_WHEEL)
    wheel = (
        float(truth.varpi_true.rho[0] + wheel_rng.normal(0.0, scenario.wheel_noise_v_std)),
        float(truth.varpi_true.phi[2] + wheel_rng.normal(0.0, scenario.wheel_noise_w_std)),
    )
    return SensorFrame(truth.t, gps, tuple(light_pixels), tuple(lane_pixels), wheel)


def default_camera() -> CameraModel:
    """Front camera: 1280x720, f=640 px, mounted 1.5 m up, looking along travel."""
    # Camera axes in vehicle coordinates: x_cam = +y_v, y_cam = -z_v,
    # z_cam = -x_v (the travel direction under the left-twist kinematics).
    r_cv = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]])
    p_cam_v = np.array([0.0, 0.0, 1.5])
    t_cv = Pose.from_rt(r_cv, -r_cv @ p_cam_v)
    return CameraModel(fx=640.0, fy=640.0, cx=640.0, cy=360.0,
                       width=1280, height=720, t_cv=t_cv)
