"""Error metrics and summaries against ground truth.

Position errors are decomposed in the TRUE vehicle frame so that
longitudinal/lateral are well defined; percentiles use the nearest-rank
method for cross-implementation reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liegroup import Pose, inverse, so3_log

METRICS = ("longitudinal", "lateral", "heading", "offset_err")

# Histogram bin widths for distribution dumps (metres / radians).
HIST_BIN_M = 0.01
HIST_BIN_RAD = 0.001


class EmptyInput(ValueError):
    """No frame errors to summarize."""


@dataclass(frozen=True)
class FrameError:
    t: float
    longitudinal: float
    lateral: float
    heading: float
    offset_err: float


def decompose_error(t_est: Pose, t_true: Pose) -> tuple[float, float, float]:
    """(longitudinal, lateral, heading) of the estimate w.r.t. ground truth.

    The position error vector of the estimated vehicle origin is expressed
    in the true vehicle frame; heading is the absolute yaw of the relative
    rotation.
    """
    o_est = inverse(t_est).translation
    o_true = inverse(t_true).translation
    d = t_true.rotation @ (o_est - o_true)
    rel = t_est.rotation @ t_true.rotation.T
    heading = abs(float(np.arctan2(rel[1, 0], rel[0, 0])))
    return abs(float(d[0])), abs(float(d[1])), heading


def offset_error(t_gm_est: Pose, t_gm_true: Pose) -> float:
    """Euclidean translation error of the offset estimate (rotation ignored)."""
    rel = t_gm_est.t @ inverse(t_gm_true).t
    return float(np.linalg.norm(rel[:3, 3]))


def nearest_rank(sorted_values: np.ndarray, percentile: float) -> float:
    n = len(sorted_values)
    rank = int(np.ceil(percentile / 100.0 * n))
    return float(sorted_values[max(rank, 1) - 1])


def summarize(errors) -> dict:
    """Per-metric (median, p95, p99) via nearest rank."""
    errors = list(errors)
    if not errors:
        raise EmptyInput("no frame errors")
    out = {}
    for metric in METRICS:
        vals = np.sort([getattr(e, metric) for e in errors])
        out[metric] = {
            "median": nearest_rank(vals, 50.0),
            "p95": nearest_rank(vals, 95.0),
            "p99": nearest_rank(vals, 99.0),
        }
    return out


def histograms(errors) -> dict:
    """Fixed-width bin counts per metric, from zero upward."""
    errors = list(errors)
    out = {}
    for metric in METRICS:
        width = HIST_BIN_RAD if metric == "heading" else HIST_BIN_M
        vals = np.array([getattr(e, metric) for e in errors])
        n_bins = int(np.floor(vals.max() / width)) + 1 if len(vals) else 1
        counts = np.bincount(
            np.minimum((vals / width).astype(int), n_bins - 1), minlength=n_bins
        )
        out[metric] = {"bin_width": width, "counts": [int(c) for c in counts]}
    return out


def frames_csv(errors, gps_present) -> str:
    """Per-frame CSV: t,longitudinal,lateral,heading,offset_err,gps_present."""
    lines = ["t,longitudinal,lateral,heading,offset_err,gps_present"]
    for err, present in zip(errors, gps_present, strict=True):
        lines.append(
            f"{err.t:.17g},{err.longitudinal:.17g},{err.lateral:.17g},"
            f"{err.heading:.17g},{err.offset_err:.17g},{int(present)}"
        )
    return "\n".join(lines) + "\n"


def offset_csv(errors) -> str:
    lines = ["t,offset_err"]
    for err in errors:
        lines.append(f"{err.t:.17g},{err.offset_err:.17g}")
    return "\n".join(lines) + "\n"
