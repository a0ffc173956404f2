"""Shared fixtures and numeric helpers for the test suite."""

import numpy as np
import pytest

from semloc import liegroup as lg
from semloc import estimator as est


def rand_twist(rng, trans_scale=2.0, rot_scale=0.8):
    return np.r_[rng.normal(0.0, trans_scale, 3), rng.normal(0.0, rot_scale, 3)]


def rand_pose(rng, trans_scale=2.0, rot_scale=0.8):
    return lg.exp_se3(rand_twist(rng, trans_scale, rot_scale))


def state_jacobian_fd(f, t_vm, varpi, t_gm, h=1e-6):
    """Central finite differences of f(t_vm, varpi, t_gm) w.r.t. the 18-dim
    left-perturbation of the state."""
    cols = []
    for i in range(est.STATE_DIM):
        d = np.zeros(est.STATE_DIM)
        d[i] = h
        plus = est.apply_perturbation(t_vm, varpi, t_gm, d)
        minus = est.apply_perturbation(t_vm, varpi, t_gm, -d)
        cols.append((np.asarray(f(*plus)) - np.asarray(f(*minus))) / (2.0 * h))
    return np.array(cols).T


def rel_err(a, b):
    denom = max(1.0, float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / denom


@pytest.fixture
def rng():
    return np.random.default_rng(42)
