"""Property tests of the array twist API of liegroup (hypothesis).

Examples are derandomized and bounded in number, so every run checks the
same few hundred twists and the suite's time barely moves. The closed-form
SE(3) left Jacobians are checked against their defining series, kept here
as the reference.
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


def _series_left_jacobian(xi, n_terms=60):
    """Reference SE(3) left Jacobian: the series sum_n ad(xi)^n / (n+1)!,
    with ad(xi) the 6x6 adjoint of se(3) in (rho; phi) order."""
    ad = np.zeros((6, 6))
    ad[:3, :3] = ad[3:, 3:] = lg.so3_wedge(xi[3:])
    ad[:3, 3:] = lg.so3_wedge(xi[:3])
    term = total = np.eye(6)
    for n in range(1, n_terms):
        term = term @ ad / (n + 1.0)
        total = total + term
    return total


@_examples(300)
@given(rhos, axes, angles)
def test_closed_form_left_jacobians_match_series(rho, axis, angle):
    xi = _twist(rho, axis, angle)
    ref = _series_left_jacobian(xi)
    for closed, series in ((lg.se3_left_jacobian(xi), ref),
                           (lg.se3_left_jacobian_inv(xi), np.linalg.inv(ref))):
        assert np.abs(closed - series).max() <= 1e-11 * np.abs(series).max()


@_examples(100)
@given(rhos, axes, st.floats(0.0, 0.9e-6))
def test_log_raises_near_pi(rho, axis, gap):
    pose = lg.exp_se3(_twist(rho, axis, np.pi - gap))
    with pytest.raises(lg.NearPiRotation):
        lg.log_se3(pose)
