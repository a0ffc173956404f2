"""Run configuration: JSON schema, strict parsing, and canned presets.

The schema is the dataclass fields of the four sections (`Scenario`,
`CameraModel`, `NoiseConfig`, `EstimatorParams`): every field is its own
JSON key, except the few in `_CODECS` whose JSON form differs. Unknown keys
are errors so that typos in tuning runs fail loudly. The resolved form
written by the CLI (`to_dict`) is itself a valid config that reproduces the
run byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .estimator import GN_MAX_ITERS, GN_TOL, NoiseConfig
from .geometry import CameraModel
from .liegroup import Pose
from .simulator import Scenario, default_camera

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


@dataclass(frozen=True)
class EstimatorParams:
    tol: float = GN_TOL
    max_iters: int = GN_MAX_ITERS
    light_gate: float = 40.0
    lane_gate: float = 25.0
    icp_iters: int = 3
    light_radius: float = 100.0
    lane_radius: float = 50.0
    subsample_stride: int = 5
    bottom_fraction: float = 0.5
    min_lane_support: int = 6
    min_line_angle_deg: float = 20.0  # reject near-horizontal lines
    burn_in: float = 10.0  # s excluded from summary percentiles
    cov0_diag: tuple = (
        25.0, 25.0, 1.0, 0.01, 0.01, 0.25,  # pose
        4.0, 1.0, 1.0, 0.01, 0.01, 0.25,    # velocity
        9.0, 9.0, 1.0, 0.01, 0.01, 0.01,    # offset (std >= injected 2 m)
    )

    def __post_init__(self):
        cov0 = tuple(float(x) for x in self.cov0_diag)
        if len(cov0) != 18 or any(x <= 0 for x in cov0):
            raise ConfigError("cov0_diag must be 18 positive variances")
        object.__setattr__(self, "cov0_diag", cov0)
        if min(self.subsample_stride, self.min_lane_support, self.max_iters) < 1:
            raise ConfigError("subsample_stride, min_lane_support and max_iters must be >= 1")
        if self.icp_iters < 0:
            raise ConfigError("icp_iters must be >= 0")
        if not all(x > 0 for x in (self.light_gate, self.lane_gate,
                                   self.light_radius, self.lane_radius)):
            raise ConfigError("gates and radii must be positive")  # NaN fails too
        if not 0.0 < self.tol < np.inf:
            raise ConfigError("tol must be positive and finite")
        if not 0.0 < self.bottom_fraction <= 1.0:
            raise ConfigError("bottom_fraction must be in (0, 1]")
        if not 0.0 <= self.min_line_angle_deg < 90.0:
            raise ConfigError("min_line_angle_deg must be in [0, 90)")


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario = field(default_factory=Scenario)
    camera: CameraModel = field(default_factory=default_camera)
    noise: NoiseConfig = field(default_factory=NoiseConfig.default)
    estimator: EstimatorParams = field(default_factory=EstimatorParams)


def _require_keys(d, allowed: set, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _pose_to_cfg(pose: Pose) -> dict:
    yaw = float(np.arctan2(pose.rotation[1, 0], pose.rotation[0, 0]))
    return {"translation": [float(x) for x in pose.translation], "yaw": yaw}


def _cfg_to_pose(d: dict) -> Pose:
    _require_keys(d, {"translation", "yaw"}, "offset")
    yaw = float(d.get("yaw", 0.0))
    c, s = np.cos(yaw), np.sin(yaw)
    r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose.from_rt(r, d.get("translation", [0.0, 0.0, 0.0]))


def _as_is(value):
    return value


def _floats(values) -> list:
    return [float(x) for x in values]


def _diag_codec(name: str):
    return (f"{name}_diag", np.diag, lambda m: _floats(np.diag(m)))


# Fields whose JSON form differs from the dataclass value:
# section -> field -> (JSON key, decode, encode). Every other field is its
# own key, with its value as is once it has its default's type
# (`_check_plain`). Decoding leaves to each dataclass's __post_init__ the
# normalisation and range checks it already does (tuples, float arrays).
_CODECS = {
    "scenario": {
        "offset_true": ("offset", _cfg_to_pose, _pose_to_cfg),
        "dropout_schedule": ("dropout_schedule", _as_is,
                             lambda v: [list(iv) for iv in v]),
    },
    "camera": {
        **{name: (name, float, _as_is) for name in ("fx", "fy", "cx", "cy")},
        **{name: (name, int, _as_is) for name in ("width", "height")},
        "t_cv": ("t_cv", Pose, lambda p: [_floats(row) for row in p.t]),
    },
    "noise": {
        **{name: _diag_codec(name)
           for name in ("q_c", "q_gm", "r_vg", "r_light", "r_lane", "r_wheel")},
        "r_pseudo": ("r_pseudo", _as_is, _floats),
    },
    "estimator": {"cov0_diag": ("cov0_diag", _as_is, list)},
}


def _codecs(section: str, value) -> list:
    """(field name, JSON key, decode, encode) for each field of a section."""
    table = _CODECS[section]
    return [(f.name, *table.get(f.name, (f.name, _as_is, _as_is)))
            for f in fields(value)]


def _check_plain(default, value):
    """A plain field's value must have its default's type; an int may stand
    for a float, and a bool never stands for a number."""
    kind = (int, float) if type(default) is float else type(default)
    if not isinstance(value, kind) or isinstance(value, bool) != isinstance(default, bool):
        raise TypeError(f"expected {type(default).__name__}, got {value!r}")


def _decode_section(section: str, default, d):
    by_key = {key: (name, decode) for name, key, decode, _ in _codecs(section, default)}
    _require_keys(d, set(by_key), section)
    try:
        changes = {}
        for key, value in d.items():
            name, decode = by_key[key]
            if name not in _CODECS[section]:
                _check_plain(getattr(default, name), value)
            changes[name] = decode(value)
        return replace(default, **changes)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section}: {exc}") from exc


def from_dict(doc: dict) -> RunConfig:
    sections = fields(RunConfig)
    _require_keys(doc, {"schema_version", *(s.name for s in sections)}, "config")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    return RunConfig(**{
        s.name: _decode_section(s.name, s.default_factory(), doc.get(s.name, {}))
        for s in sections
    })


def to_dict(config: RunConfig) -> dict:
    doc = {"schema_version": SCHEMA_VERSION}
    for s in fields(config):
        value = getattr(config, s.name)
        doc[s.name] = {key: encode(getattr(value, name))
                       for name, key, _, encode in _codecs(s.name, value)}
    return doc


def loads(text: str | bytes) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return from_dict(doc)


def preset(name: str) -> dict:
    """Canned scenario configs mirroring the two experimental conditions."""
    base = {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "seed": 1,
            "duration": 120.0,
            "rate": 10.0,
            "offset": {"translation": [2.0, 2.0, 0.0], "yaw": 0.0},
            "dropout_schedule": [],
        },
        "camera": {},
        "noise": {},
        "estimator": {},
    }
    if name == "nominal":
        return base
    if name == "dropout_30_60":
        base["scenario"]["dropout_schedule"] = [[30.0, 60.0], [90.0, 120.0]]
        return base
    raise ConfigError(f"unknown preset: {name}")


PRESETS = ("nominal", "dropout_30_60")
