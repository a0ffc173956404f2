import json
import math

import numpy as np
import pytest

from semloc import semantic_map as sm


def make_map():
    lanes = (
        sm.LaneBoundary(0, [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]),
        sm.LaneBoundary(1, [[0.0, 3.5, 0.0], [10.0, 3.5, 0.0], [20.0, 3.5, 0.0]]),
    )
    lights = (
        sm.TrafficLight(100, [5.0, 1.0, 5.0]),
        sm.TrafficLight(101, [-3.0, 2.0, 5.0]),
    )
    return sm.SemanticMap(lanes, lights)


def test_empty_document():
    smap = sm.load_map('{"lanes": [], "lights": []}')
    assert smap.lanes == () and smap.lights == ()


def test_duplicate_light_id():
    doc = {"lanes": [], "lights": [
        {"id": 1, "position": [0, 0, 0]},
        {"id": 1, "position": [1, 0, 0]},
    ]}
    with pytest.raises(sm.ValidationError):
        sm.load_map(json.dumps(doc))


def test_malformed_json():
    with pytest.raises(sm.ParseError):
        sm.load_map("{not json")
    with pytest.raises(sm.ParseError):
        sm.load_map('{"lanes": []}')  # missing lights
    with pytest.raises(sm.ParseError):
        sm.load_map('{"lanes": [{"id": 1}], "lights": []}')


def test_lane_validation():
    with pytest.raises(sm.ValidationError):
        sm.LaneBoundary(0, [[0.0, 0.0, 0.0]])  # single vertex
    with pytest.raises(sm.ValidationError):
        sm.LaneBoundary(0, [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # coincident


def test_save_load_round_trip_bytes():
    smap = make_map()
    data = sm.save_map(smap)
    again = sm.load_map(data)
    assert sm.save_map(again) == data
    assert np.array_equal(again.lanes[1].vertices, smap.lanes[1].vertices)
    assert np.array_equal(again.lights[0].position, smap.lights[0].position)


def test_by_id_lookup():
    smap = make_map()
    assert smap.light_by_id(101).id == 101
    assert smap.lane_by_id(1).id == 1
    with pytest.raises(KeyError):
        smap.light_by_id(999)


def test_nearby_lights_exact_and_empty():
    smap = make_map()
    hits = sm.nearby_lights(smap, [5.0, 1.0, 5.0], 1e-9)
    assert [l.id for l in hits] == [100]
    assert sm.nearby_lights(smap, [1000.0, 0.0, 0.0], 1.0) == []
    with pytest.raises(ValueError):
        sm.nearby_lights(smap, [0, 0, 0], 0.0)


def test_nearby_lights_matches_brute_force(rng):
    lights = tuple(
        sm.TrafficLight(i, rng.uniform(-100, 100, 3)) for i in range(100)
    )
    smap = sm.SemanticMap((), lights)
    center = rng.uniform(-50, 50, 3)
    radius = 50.0
    got = [l.id for l in sm.nearby_lights(smap, center, radius)]
    expected = sorted(
        (np.linalg.norm(l.position - center), l.id) for l in lights
        if np.linalg.norm(l.position - center) <= radius
    )
    assert got == [i for _, i in expected]


def test_nearby_lanes_vertex_center_and_empty_map():
    smap = make_map()
    hits = sm.nearby_lanes(smap, [10.0, 3.5, 0.0], 0.5)
    assert 1 in [l.id for l in hits]
    assert sm.nearby_lanes(sm.SemanticMap(), [0, 0, 0], 10.0) == []


def test_nearby_lanes_matches_brute_force(rng):
    lanes = tuple(
        sm.LaneBoundary(i, rng.uniform(-50, 50, (4, 3))) for i in range(20)
    )
    smap = sm.SemanticMap(lanes, ())
    center = rng.uniform(-20, 20, 3)
    radius = 30.0
    got = {l.id for l in sm.nearby_lanes(smap, center, radius)}
    expected = {
        lane.id for lane in lanes
        if min(
            sm.point_segment_distance(center, lane.vertices[i], lane.vertices[i + 1])
            for i in range(len(lane.vertices) - 1)
        ) <= radius
    }
    assert got == expected


def test_point_segment_distance_cases():
    assert sm.point_segment_distance([0, 1], [0, 0], [10, 0]) == 1.0
    assert sm.point_segment_distance([-3, 4], [0, 0], [10, 0]) == 5.0
    assert sm.point_segment_distance([5, 0], [0, 0], [10, 0]) == 0.0
    # degenerate segment falls back to point distance
    assert sm.point_segment_distance([3, 4], [0, 0], [0, 0]) == 5.0


def _segment_distance_reference(p, a, b) -> float:
    """One point to one segment, in plain Python."""
    d = [bi - ai for ai, bi in zip(a, b)]
    denom = sum(x * x for x in d)
    s = sum((pi - ai) * di for pi, ai, di in zip(p, a, d)) / denom if denom else 0.0
    s = min(max(s, 0.0), 1.0)
    return math.dist(p, [ai + s * di for ai, di in zip(a, d)])


@pytest.mark.parametrize("dim", [2, 3])
def test_point_segment_distance_broadcasts(rng, dim):
    points = rng.uniform(-10.0, 10.0, (40, dim))
    a = rng.uniform(-10.0, 10.0, (12, dim))
    b = rng.uniform(-10.0, 10.0, (12, dim))
    b[::4] = a[::4]  # degenerate segments
    got = sm.point_segment_distance(points[:, None, :], a, b)
    assert got.shape == (40, 12)
    expected = [[_segment_distance_reference(p, a_j, b_j) for a_j, b_j in zip(a, b)]
                for p in points]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    # one point against every segment, and point i against segment i
    np.testing.assert_allclose(sm.point_segment_distance(points[0], a, b), got[0],
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sm.point_segment_distance(points[:12], a, b),
                               np.diag(got[:12]), rtol=1e-12, atol=1e-12)
