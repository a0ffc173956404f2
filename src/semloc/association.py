"""Data association between detections and map projections.

Traffic lights: translation-only ICP in image space followed by greedy
one-to-one nearest-neighbour assignment with a distance gate. Lane
markings: pixel-to-projected-segment matching, even subsampling, and
total-least-squares line fitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ImageLine, Pixel
from .semantic_map import point_segment_distance


class DegenerateInput(ValueError):
    """Pixel set too concentrated to define a line."""


@dataclass(frozen=True)
class LightMatch:
    detection: Pixel
    light_id: int
    projected: Pixel


@dataclass(frozen=True)
class LaneMatch:
    lane_id: int
    fitted: ImageLine
    support: int
    # Map-frame endpoints of the matched polyline segment; the estimator
    # re-projects them at each linearization point.
    segment_map: tuple


def subsample_pixels(pixels, stride: int, bottom_fraction: float, height: float):
    """Keep pixels in the bottom image region, then every stride-th survivor."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    v_min = (1.0 - bottom_fraction) * height
    kept = [p for p in pixels if p.v >= v_min]
    return kept[::stride]


def associate_lights(detections, candidates, gate: float, icp_iters: int):
    """Associate light detections with projected map lights.

    ICP estimates a 2D image-space translation aligning detections to the
    candidates (rounds of nearest-neighbour + mean-residual shift); the
    final one-to-one greedy assignment gates on the aligned distances but
    records the original unshifted detection pixels.

    Returns (matches, outliers).
    """
    if gate <= 0:
        raise ValueError("gate must be positive")
    detections = list(detections)
    candidates = list(candidates)
    if not detections or not candidates:
        return [], list(detections)

    det = np.array([[p.u, p.v] for p in detections])
    cand = np.array([[p.u, p.v] for _, p in candidates])

    shift = np.zeros(2)
    for _ in range(max(icp_iters, 0)):
        shifted = det + shift
        nn = np.argmin(
            np.linalg.norm(shifted[:, None, :] - cand[None, :, :], axis=2), axis=1
        )
        shift = shift + (cand[nn] - shifted).mean(axis=0)

    # Greedy one-to-one by increasing aligned distance; ties broken by
    # detection order then candidate order for determinism.
    dists = np.linalg.norm((det + shift)[:, None, :] - cand[None, :, :], axis=2)
    pairs = sorted(
        (dists[i, j], i, j)
        for i in range(len(detections))
        for j in range(len(candidates))
    )
    used_det: set[int] = set()
    used_cand: set[int] = set()
    matches = []
    for d, i, j in pairs:
        if d > gate:
            break
        if i in used_det or j in used_cand:
            continue
        used_det.add(i)
        used_cand.add(j)
        matches.append(
            LightMatch(detections[i], candidates[j][0], candidates[j][1])
        )
    outliers = [detections[i] for i in range(len(detections)) if i not in used_det]
    return matches, outliers


def match_lane_pixels(pixels, projected, gate: float):
    """Assign each pixel to the lane of its nearest projected segment.

    projected: list of (lane_id, segments) where each segment has .p0/.p1
    pixels. Pixels farther than gate from every segment are outliers;
    ties within 1e-9 go to the smaller lane_id.

    Returns (assignments: dict lane_id -> list of Pixel, outliers).
    """
    if gate <= 0:
        raise ValueError("gate must be positive")
    assignments: dict[int, list[Pixel]] = {}
    outliers = []
    for px in pixels:
        p = np.array([px.u, px.v])
        best_d = np.inf
        best_id = None
        for lane_id, segments in projected:
            for seg in segments:
                d = point_segment_distance(
                    p, [seg.p0.u, seg.p0.v], [seg.p1.u, seg.p1.v]
                )
                if d < best_d - 1e-9 or (abs(d - best_d) <= 1e-9 and
                                         (best_id is None or lane_id < best_id)):
                    best_d = d
                    best_id = lane_id
        if best_id is None or best_d > gate:
            outliers.append(px)
        else:
            assignments.setdefault(best_id, []).append(px)
    return assignments, outliers


def fit_line(pixels) -> ImageLine:
    """Total-least-squares line through the pixels (orthogonal residuals).

    TLS handles near-vertical lane projections where u-on-v regression
    would be the stable choice and v-on-u would not; it is symmetric in
    both orientations.
    """
    pts = np.array([[p.u, p.v] for p in pixels], dtype=float)
    if len(pts) < 2:
        raise DegenerateInput("need at least 2 pixels")
    mean = pts.mean(axis=0)
    centered = pts - mean
    if np.linalg.norm(centered, axis=1).max() <= 1e-6:
        raise DegenerateInput("all pixels coincide")
    cov = centered.T @ centered
    _, vecs = np.linalg.eigh(cov)
    direction = vecs[:, -1]  # principal direction
    proj = centered @ direction
    lo = mean + proj.min() * direction
    hi = mean + proj.max() * direction
    return ImageLine(Pixel(*lo), Pixel(*hi))
