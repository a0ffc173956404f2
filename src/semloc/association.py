"""Data association between detections and map projections.

Traffic lights: translation-only ICP in image space followed by greedy
one-to-one nearest-neighbour assignment with a distance gate. Lane
markings: pixel-to-projected-segment matching, even subsampling, and
total-least-squares line fitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .semantic_map import point_segment_distance


class DegenerateInput(ValueError):
    """Pixel set too concentrated to define a line."""


@dataclass(frozen=True)
class LightMatch:
    detection: np.ndarray  # (2,) pixel
    light_id: int


@dataclass(frozen=True)
class LaneMatch:
    lane_id: int
    fitted: np.ndarray  # (2, 2) read-only line through two pixels
    support: int
    # Map-frame endpoints of the matched polyline segment; the estimator
    # re-projects them at each linearization point.
    segment_map: tuple


def subsample_pixels(pixels: np.ndarray, stride: int, bottom_fraction: float,
                     height: float) -> np.ndarray:
    """Keep the pixels (N, 2) in the bottom image region, then every stride-th survivor."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    v_min = (1.0 - bottom_fraction) * height
    return pixels[pixels[:, 1] >= v_min][::stride]


def associate_lights(detections: np.ndarray, candidates, gate: float, icp_iters: int):
    """Associate light detections (M, 2) with projected map lights.

    ICP estimates a 2D image-space translation aligning detections to the
    candidates (rounds of nearest-neighbour + mean-residual shift); the
    final one-to-one greedy assignment gates on the aligned distances but
    records the original unshifted detection pixels.

    candidates: list of (light_id, projected pixel (2,)).
    Returns (matches, outliers (K, 2)).
    """
    if gate <= 0:
        raise ValueError("gate must be positive")
    candidates = list(candidates)
    if not len(detections) or not candidates:
        return [], detections

    cand = np.array([px for _, px in candidates])

    shift = np.zeros(2)
    for _ in range(icp_iters):
        shifted = detections + shift
        nn = np.argmin(
            np.linalg.norm(shifted[:, None, :] - cand[None, :, :], axis=2), axis=1
        )
        shift = shift + (cand[nn] - shifted).mean(axis=0)

    # Greedy one-to-one by increasing aligned distance; ties broken by
    # detection order then candidate order for determinism.
    dists = np.linalg.norm((detections + shift)[:, None, :] - cand[None, :, :], axis=2)
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
        matches.append(LightMatch(detections[i], candidates[j][0]))
    return matches, np.delete(detections, sorted(used_det), axis=0)


def match_lane_pixels(pixels: np.ndarray, projected, gate: float):
    """Assign each pixel of (N, 2) to the lane of its nearest projected segment.

    projected: list of (lane_id, segments (K, 2, 2)), each segment a pair
    of end pixels. Pixels farther than gate from every segment are outliers;
    ties within 1e-9 go to the smaller lane_id.

    Returns (assignments: dict lane_id -> (k, 2) pixels, outliers (K, 2)),
    each in pixel order.
    """
    if gate <= 0:
        raise ValueError("gate must be positive")
    # sorted by lane id, so the first near-minimal segment has the smallest tied id
    projected = sorted(projected, key=lambda x: x[0])
    lane_ids = np.array([lane_id for lane_id, segs in projected for _ in segs])
    if not len(pixels) or not len(lane_ids):
        return {}, pixels
    ends = np.concatenate([segs for _, segs in projected])
    dist = point_segment_distance(pixels[:, None], ends[:, 0], ends[:, 1])
    best_d = dist.min(axis=1)
    best_id = lane_ids[np.argmax(dist <= best_d[:, None] + 1e-9, axis=1)]
    inlier = best_d <= gate
    assignments = {
        lane_id: pixels[inlier & (best_id == lane_id)]
        for lane_id in sorted(set(best_id[inlier].tolist()))
    }
    return assignments, pixels[~inlier]


def fit_line(pixels: np.ndarray) -> np.ndarray:
    """Total-least-squares line through the pixels (k, 2) (orthogonal residuals),
    as a read-only (2, 2) array of its two extreme pixels.

    TLS handles near-vertical lane projections where u-on-v regression
    would be the stable choice and v-on-u would not; it is symmetric in
    both orientations.
    """
    pts = np.asarray(pixels, dtype=float)
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
    if np.hypot(*(hi - lo)) <= 1e-6:
        raise DegenerateInput("line ends coincide")
    line = np.array([lo, hi])
    line.flags.writeable = False
    return line
