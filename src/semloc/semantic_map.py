"""Lightweight HD map: lane-boundary polylines + traffic-light point landmarks.

File format (UTF-8 JSON, lengths in metres):
  {"lanes": [{"id": int, "vertices": [[x, y, z], ...]}, ...],
   "lights": [{"id": int, "position": [x, y, z]}, ...]}

Queries are linear scans; maps are small enough that no spatial index is
warranted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    """Malformed map document."""


class ValidationError(ValueError):
    """Well-formed document violating a map invariant."""


@dataclass(frozen=True)
class LaneBoundary:
    id: int
    vertices: np.ndarray  # (n, 3), map frame, metres

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 2:
            raise ValidationError(f"lane {self.id}: need >= 2 vertices of dim 3")
        if not np.isfinite(v).all():
            raise ValidationError(f"lane {self.id}: non-finite vertex")
        steps = np.linalg.norm(np.diff(v, axis=0), axis=1)
        if (steps <= 1e-6).any():
            raise ValidationError(f"lane {self.id}: consecutive vertices coincide")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)


@dataclass(frozen=True)
class TrafficLight:
    id: int
    position: np.ndarray  # (3,), map frame, metres

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float).reshape(3)
        if not np.isfinite(p).all():
            raise ValidationError(f"light {self.id}: non-finite position")
        p.flags.writeable = False
        object.__setattr__(self, "position", p)


@dataclass(frozen=True)
class SemanticMap:
    lanes: tuple = field(default_factory=tuple)
    lights: tuple = field(default_factory=tuple)

    def __post_init__(self):
        lanes = tuple(self.lanes)
        lights = tuple(self.lights)
        for name, items in (("lane", lanes), ("light", lights)):
            ids = [it.id for it in items]
            if len(set(ids)) != len(ids):
                raise ValidationError(f"duplicate {name} id")
        object.__setattr__(self, "lanes", lanes)
        object.__setattr__(self, "lights", lights)

    def lane_by_id(self, lane_id: int) -> LaneBoundary:
        for lane in self.lanes:
            if lane.id == lane_id:
                return lane
        raise KeyError(lane_id)

    def light_by_id(self, light_id: int) -> TrafficLight:
        for light in self.lights:
            if light.id == light_id:
                return light
        raise KeyError(light_id)


def load_map(data: bytes | str) -> SemanticMap:
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"lanes", "lights"}:
        raise ParseError("document must have exactly the keys 'lanes' and 'lights'")
    try:
        lanes = [
            LaneBoundary(int(item["id"]), np.array(item["vertices"], dtype=float))
            for item in doc["lanes"]
        ]
        lights = [
            TrafficLight(int(item["id"]), np.array(item["position"], dtype=float))
            for item in doc["lights"]
        ]
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad map entry: {exc}") from exc
    return SemanticMap(tuple(lanes), tuple(lights))


def save_map(smap: SemanticMap) -> bytes:
    """Canonical serialization; load(save(m)) preserves coordinates exactly."""
    doc = {
        "lanes": [
            {"id": lane.id, "vertices": [list(v) for v in lane.vertices]}
            for lane in smap.lanes
        ],
        "lights": [
            {"id": light.id, "position": list(light.position)}
            for light in smap.lights
        ],
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("utf-8")


def point_segment_distance(p, a, b) -> np.ndarray:
    """Euclidean distance from points p to segments [a, b], in 2D or 3D.

    Broadcasts over leading axes: points (P, 1, 2) against segments with
    ends (S, 2) give (P, S). A degenerate segment (a == b) is its point a.
    """
    p, a, b = (np.asarray(x, dtype=float) for x in (p, a, b))
    d = b - a
    denom = np.sum(d * d, axis=-1)
    s = np.sum((p - a) * d, axis=-1) / np.where(denom == 0.0, 1.0, denom)
    return np.linalg.norm(p - (a + np.clip(s, 0.0, 1.0)[..., None] * d), axis=-1)


def nearby_lights(smap: SemanticMap, center, radius: float) -> list[TrafficLight]:
    """Lights within radius of center, nearest first, id ascending on ties."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float).reshape(3)
    hits = [
        (float(np.linalg.norm(light.position - center)), light.id, light)
        for light in smap.lights
    ]
    return [light for d, _, light in sorted(hits, key=lambda h: (h[0], h[1])) if d <= radius]


def nearby_lanes(smap: SemanticMap, center, radius: float) -> list[LaneBoundary]:
    """Boundaries whose minimum point-to-polyline distance is within radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float).reshape(3)
    hits = [
        (point_segment_distance(center, lane.vertices[:-1], lane.vertices[1:]).min(),
         lane.id, lane)
        for lane in smap.lanes
    ]
    return [lane for d, _, lane in sorted(hits, key=lambda h: (h[0], h[1])) if d <= radius]
