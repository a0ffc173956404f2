import itertools

import numpy as np
import pytest

from semloc import association as assoc
from semloc.geometry import ImageSegment, Pixel


def test_subsample_identity():
    pixels = [Pixel(float(i), float(i)) for i in range(10)]
    assert assoc.subsample_pixels(pixels, 1, 1.0, 720.0) == pixels


def test_subsample_bottom_fraction():
    rng = np.random.default_rng(0)
    pixels = [Pixel(u, v) for u, v in rng.uniform(0, 720, (200, 2))]
    kept = assoc.subsample_pixels(pixels, 1, 0.4, 720.0)
    assert kept and all(p.v >= 432.0 for p in kept)
    with pytest.raises(ValueError):
        assoc.subsample_pixels(pixels, 0, 0.4, 720.0)


def test_subsample_stride():
    pixels = [Pixel(float(i), 700.0) for i in range(10)]
    kept = assoc.subsample_pixels(pixels, 3, 1.0, 720.0)
    assert [p.u for p in kept] == [0.0, 3.0, 6.0, 9.0]


def test_associate_exact_hit():
    det = [Pixel(100.0, 200.0)]
    cand = [(7, Pixel(100.0, 200.0))]
    matches, outliers = assoc.associate_lights(det, cand, gate=10.0, icp_iters=3)
    assert len(matches) == 1 and not outliers
    assert matches[0].light_id == 7
    assert matches[0].detection == det[0]


def test_associate_beyond_gate_is_outlier():
    det = [Pixel(0.0, 0.0)]
    cand = [(1, Pixel(20.0, 0.0))]
    matches, outliers = assoc.associate_lights(det, cand, gate=10.0, icp_iters=0)
    assert not matches and outliers == det


def test_associate_icp_recovers_constant_shift(rng):
    # 5 detections = candidates shifted by (30, 0); gate smaller than the
    # shift still matches all 5 because the gate applies after alignment.
    cand_px = [Pixel(float(u), float(v)) for u, v in
               [(100, 100), (300, 120), (500, 90), (700, 140), (900, 110)]]
    candidates = [(i, p) for i, p in enumerate(cand_px)]
    detections = [Pixel(p.u + 30.0, p.v) for p in cand_px]
    matches, outliers = assoc.associate_lights(detections, candidates, gate=20.0,
                                             icp_iters=3)
    assert not outliers and len(matches) == 5
    # oracle: exhaustive one-to-one assignment minimizing total distance
    best = min(
        itertools.permutations(range(5)),
        key=lambda perm: sum(
            np.hypot(detections[i].u - cand_px[j].u, detections[i].v - cand_px[j].v)
            for i, j in enumerate(perm)
        ),
    )
    got = {(m.detection.u, m.detection.v): m.light_id for m in matches}
    for i, j in enumerate(best):
        assert got[(detections[i].u, detections[i].v)] == j
    # stored detections are the original, unshifted pixels
    assert all(m.detection in detections for m in matches)


def test_associate_empty_inputs():
    assert assoc.associate_lights([], [(1, Pixel(0, 0))], 10.0, 3) == ([], [])
    det = [Pixel(1.0, 2.0)]
    matches, outliers = assoc.associate_lights(det, [], 10.0, 3)
    assert matches == [] and outliers == det


def test_match_lane_pixel_on_segment():
    seg = ImageSegment(Pixel(0.0, 0.0), Pixel(100.0, 0.0), 0)
    assignments, outliers = assoc.match_lane_pixels(
        [Pixel(50.0, 0.0)], [(3, [seg])], gate=5.0
    )
    assert list(assignments) == [3] and not outliers


def test_match_lane_tie_goes_to_smaller_id():
    seg_a = ImageSegment(Pixel(0.0, 0.0), Pixel(100.0, 0.0), 0)
    seg_b = ImageSegment(Pixel(0.0, 10.0), Pixel(100.0, 10.0), 0)
    assignments, _ = assoc.match_lane_pixels(
        [Pixel(50.0, 5.0)], [(9, [seg_b]), (2, [seg_a])], gate=20.0
    )
    assert list(assignments) == [2]


def test_match_lane_matches_brute_force(rng):
    segments = []
    for lane_id in range(4):
        p0 = rng.uniform(0, 640, 2)
        p1 = p0 + rng.uniform(-200, 200, 2)
        segments.append((lane_id, [ImageSegment(Pixel(*p0), Pixel(*p1), 0)]))
    pixels = [Pixel(u, v) for u, v in rng.uniform(0, 640, (200, 2))]
    gate = 80.0
    assignments, outliers = assoc.match_lane_pixels(pixels, segments, gate)

    def dist(px, seg):
        from semloc.semantic_map import point_segment_distance
        return point_segment_distance(
            [px.u, px.v], [seg.p0.u, seg.p0.v], [seg.p1.u, seg.p1.v]
        )

    for px in pixels:
        dists = [(dist(px, segs[0]), lane_id) for lane_id, segs in segments]
        best_d, best_id = min(dists)
        if best_d > gate:
            assert px in outliers
        else:
            assert px in assignments[best_id]


def test_fit_line_through_two_pixels():
    line = assoc.fit_line([Pixel(0.0, 0.0), Pixel(10.0, 20.0)])
    # direction matches the chord
    du, dv = line.p1.u - line.p0.u, line.p1.v - line.p0.v
    assert abs(du * 20.0 - dv * 10.0) < 1e-9


def test_fit_line_recovers_exact_line(rng):
    # pixels on u = 3 v + 7
    vs = rng.uniform(0, 100, 30)
    pixels = [Pixel(3.0 * v + 7.0, v) for v in vs]
    line = assoc.fit_line(pixels)
    from semloc.geometry import line_x_at_y
    xs = line_x_at_y(line, [0.0, 1.0])
    assert abs(xs[0] - 7.0) < 1e-9
    assert abs(xs[1] - 10.0) < 1e-9


def test_fit_line_degenerate():
    with pytest.raises(assoc.DegenerateInput):
        assoc.fit_line([Pixel(1.0, 1.0)])
    with pytest.raises(assoc.DegenerateInput):
        assoc.fit_line([Pixel(1.0, 1.0)] * 5)
