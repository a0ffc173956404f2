"""Property tests of the array twist API of liegroup (hypothesis).

Examples are derandomized and bounded in number, so every run checks the
same few hundred twists and the suite's time barely moves.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semloc import liegroup as lg


def _examples(n):
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


rhos = st.tuples(*[st.floats(-5.7, 5.7)] * 3).map(np.array)  # |rho| <= 10
axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array)
# angles across [0, pi - 1e-3], with extra weight on the tiny angles and on
# both sides of the series/closed-form switch
angles = st.one_of(
    st.floats(0.0, np.pi - 1e-3),
    st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
    st.floats(0.5, 2.0).map(lambda s: s * lg.SMALL_ANGLE),
)


def _twist(rho, axis, angle):
    norm = np.linalg.norm(axis)
    assume(norm > 1e-3)
    return np.r_[rho, axis / norm * angle]


@_examples(300)
@given(rhos, axes, angles)
def test_log_exp_round_trip(rho, axis, angle):
    xi = _twist(rho, axis, angle)
    assert np.abs(lg.log_se3(lg.exp_se3(xi)) - xi).max() < 1e-9


@_examples(300)
@given(rhos, axes, angles)
def test_left_jacobian_times_inverse_is_identity(rho, axis, angle):
    xi = _twist(rho, axis, angle)
    prod = lg.se3_left_jacobian(xi) @ lg.se3_left_jacobian_inv(xi)
    assert np.abs(prod - np.eye(6)).max() < 1e-10


@_examples(100)
@given(rhos, axes, st.floats(0.0, 0.9e-6))
def test_log_raises_near_pi(rho, axis, gap):
    pose = lg.exp_se3(_twist(rho, axis, np.pi - gap))
    with pytest.raises(lg.NearPiRotation):
        lg.log_se3(pose)
