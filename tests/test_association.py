import itertools
import math

import numpy as np
import pytest

from semloc import association as assoc


def _has_row(rows, px) -> bool:
    return bool((rows == px).all(axis=1).any())


def test_subsample_identity():
    pixels = np.array([[float(i), float(i)] for i in range(10)])
    assert np.array_equal(assoc.subsample_pixels(pixels, 1, 1.0, 720.0), pixels)


def test_subsample_bottom_fraction():
    rng = np.random.default_rng(0)
    pixels = rng.uniform(0, 720, (200, 2))
    kept = assoc.subsample_pixels(pixels, 1, 0.4, 720.0)
    assert len(kept) and (kept[:, 1] >= 432.0).all()
    with pytest.raises(ValueError):
        assoc.subsample_pixels(pixels, 0, 0.4, 720.0)


def test_subsample_stride():
    pixels = np.array([[float(i), 700.0] for i in range(10)])
    kept = assoc.subsample_pixels(pixels, 3, 1.0, 720.0)
    assert kept[:, 0].tolist() == [0.0, 3.0, 6.0, 9.0]


def test_associate_exact_hit():
    det = np.array([[100.0, 200.0]])
    cand = [(7, np.array([100.0, 200.0]))]
    matches, outliers = assoc.associate_lights(det, cand, gate=10.0, icp_iters=3)
    assert len(matches) == 1 and not len(outliers)
    assert matches[0].light_id == 7
    assert np.array_equal(matches[0].detection, det[0])


def test_associate_beyond_gate_is_outlier():
    det = np.array([[0.0, 0.0]])
    cand = [(1, np.array([20.0, 0.0]))]
    matches, outliers = assoc.associate_lights(det, cand, gate=10.0, icp_iters=0)
    assert not matches and np.array_equal(outliers, det)


def test_associate_icp_recovers_constant_shift(rng):
    # 5 detections = candidates shifted by (30, 0); gate smaller than the
    # shift still matches all 5 because the gate applies after alignment.
    cand_px = [np.array([float(u), float(v)]) for u, v in
               [(100, 100), (300, 120), (500, 90), (700, 140), (900, 110)]]
    candidates = [(i, p) for i, p in enumerate(cand_px)]
    detections = np.array([[p[0] + 30.0, p[1]] for p in cand_px])
    matches, outliers = assoc.associate_lights(detections, candidates, gate=20.0,
                                             icp_iters=3)
    assert not len(outliers) and len(matches) == 5
    # oracle: exhaustive one-to-one assignment minimizing total distance
    best = min(
        itertools.permutations(range(5)),
        key=lambda perm: sum(
            np.hypot(detections[i, 0] - cand_px[j][0], detections[i, 1] - cand_px[j][1])
            for i, j in enumerate(perm)
        ),
    )
    got = {tuple(m.detection): m.light_id for m in matches}
    for i, j in enumerate(best):
        assert got[tuple(detections[i])] == j
    # stored detections are the original, unshifted pixels
    assert all(_has_row(detections, m.detection) for m in matches)


def test_associate_empty_inputs():
    matches, outliers = assoc.associate_lights(np.empty((0, 2)),
                                               [(1, np.array([0.0, 0.0]))], 10.0, 3)
    assert matches == [] and outliers.shape == (0, 2)
    det = np.array([[1.0, 2.0]])
    matches, outliers = assoc.associate_lights(det, [], 10.0, 3)
    assert matches == [] and np.array_equal(outliers, det)


def test_match_lane_pixel_on_segment():
    seg = np.array([[0.0, 0.0], [100.0, 0.0]])
    assignments, outliers = assoc.match_lane_pixels(
        np.array([[50.0, 0.0]]), [(3, seg[None])], gate=5.0
    )
    assert list(assignments) == [3] and not len(outliers)


def test_match_lane_tie_goes_to_smaller_id():
    seg_a = np.array([[0.0, 0.0], [100.0, 0.0]])
    seg_b = np.array([[0.0, 10.0], [100.0, 10.0]])
    assignments, _ = assoc.match_lane_pixels(
        np.array([[50.0, 5.0]]), [(9, seg_b[None]), (2, seg_a[None])], gate=20.0
    )
    assert list(assignments) == [2]


def test_match_lane_matches_brute_force(rng):
    segments = []
    for lane_id in range(4):
        p0 = rng.uniform(0, 640, 2)
        p1 = p0 + rng.uniform(-200, 200, 2)
        segments.append((lane_id, np.array([[p0, p1]])))
    pixels = rng.uniform(0, 640, (200, 2))
    gate = 80.0
    assignments, outliers = assoc.match_lane_pixels(pixels, segments, gate)

    def dist(px, seg):
        from semloc.semantic_map import point_segment_distance
        return point_segment_distance(
            px, [seg[0][0], seg[0][1]], [seg[1][0], seg[1][1]]
        )

    for px in pixels:
        dists = [(dist(px, segs[0]), lane_id) for lane_id, segs in segments]
        best_d, best_id = min(dists)
        if best_d > gate:
            assert _has_row(outliers, px)
        else:
            assert _has_row(assignments[best_id], px)


def _segment_distance(px, seg) -> float:
    """One pixel (u, v) to one non-degenerate segment, in plain Python."""
    u, v = px
    (u0, v0), (u1, v1) = seg
    du, dv = u1 - u0, v1 - v0
    s = ((u - u0) * du + (v - v0) * dv) / (du * du + dv * dv)
    s = min(max(s, 0.0), 1.0)
    return math.hypot(u - (u0 + s * du), v - (v0 + s * dv))


def test_match_lane_brute_force_several_segments_and_tie(rng):
    def polyline(points):
        points = np.asarray(points)
        return np.stack([points[:-1], points[1:]], axis=1)

    # lanes 8 and 4 run 50 px either side of the row v = 150 over u in
    # [0, 640], so pixels on that row tie exactly; the other lanes keep to
    # v >= 300
    projected = [(8, polyline([[0.0, 100.0], [320.0, 100.0], [640.0, 100.0]])),
                 (4, polyline([[0.0, 200.0], [640.0, 200.0]]))]
    for lane_id in (7, 3, 5, 1):
        projected.append((lane_id, polyline(rng.uniform(300.0, 640.0, (4, 2)))))
    ties = np.array([[u, 150.0] for u in (10.0, 160.0, 320.0, 500.0)])
    pixels = np.concatenate([ties, rng.uniform(0, 640, (300, 2))])
    gate = 60.0
    assignments, outliers = assoc.match_lane_pixels(pixels, projected, gate)

    for px in pixels.tolist():
        lane_d = {lane_id: min(_segment_distance(px, s) for s in segs)
                  for lane_id, segs in projected}
        best_d = min(lane_d.values())
        best_id = min(i for i, d in lane_d.items() if d <= best_d + 1e-9)
        if best_d > gate:
            assert _has_row(outliers, px)
        else:
            assert _has_row(assignments[best_id], px)
    assert all(_has_row(assignments[4], px) for px in ties)
    assert sum(map(len, assignments.values())) + len(outliers) == len(pixels)


def test_fit_line_through_two_pixels():
    line = assoc.fit_line(np.array([[0.0, 0.0], [10.0, 20.0]]))
    # direction matches the chord
    du, dv = line[1, 0] - line[0, 0], line[1, 1] - line[0, 1]
    assert abs(du * 20.0 - dv * 10.0) < 1e-9


def test_fit_line_recovers_exact_line(rng):
    # pixels on u = 3 v + 7
    vs = rng.uniform(0, 100, 30)
    pixels = np.stack([3.0 * vs + 7.0, vs], axis=1)
    line = assoc.fit_line(pixels)
    from semloc.geometry import line_x_at_y
    xs = line_x_at_y(line, [0.0, 1.0])
    assert abs(xs[0] - 7.0) < 1e-9
    assert abs(xs[1] - 10.0) < 1e-9


def test_fit_line_degenerate():
    with pytest.raises(assoc.DegenerateInput):
        assoc.fit_line(np.array([[1.0, 1.0]]))
    with pytest.raises(assoc.DegenerateInput):
        assoc.fit_line(np.full((5, 2), 1.0))
    # 99 pixels spread 0.95e-6 px along u and one 1.05e-6 px off that row at
    # its middle: the pixels pass the 1e-6 spread test, the fitted line's two
    # ends do not
    row = np.column_stack([np.linspace(0.0, 0.95e-6, 99), np.zeros(99)])
    pixels = np.vstack([row, [[0.475e-6, 1.05e-6]]]) + (600.0, 400.0)
    with pytest.raises(assoc.DegenerateInput):
        assoc.fit_line(pixels)
