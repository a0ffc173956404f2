"""Independent brute-force Gauss-Newton solver for single-step problems.

Parametrizes the state as a global 18-vector of left perturbations around the
*predicted* mean and differentiates the stacked residual numerically, so it
shares no Jacobian code with the estimator under test. Cauchy weights for the
semantic-cue terms are recomputed from the current residuals each iteration,
mirroring the estimator's robust scheme.
"""

import numpy as np

from semloc import estimator as est
from semloc import liegroup as lg
from semloc.geometry import BehindCamera, HorizontalLine


def _unpack(pred, d):
    t_vm = lg.compose(lg.exp_se3(d[0:6]), pred.t_vm)
    varpi = pred.varpi + d[6:12]
    t_gm = lg.compose(lg.exp_se3(d[12:18]), pred.t_gm)
    return t_vm, varpi, t_gm


def _residual_blocks(pred, bundle, smap, cam, d):
    """(residual, kind) blocks at state pred (+) d; kind marks robust terms."""
    t_vm, varpi, t_gm = _unpack(pred, d)
    blocks = [
        (lg.log_se3(lg.compose(t_vm, lg.inverse(pred.t_vm))), "prior_vm"),
        (varpi - pred.varpi, "prior_v"),
        (lg.log_se3(lg.compose(t_gm, lg.inverse(pred.t_gm))), "prior_gm"),
    ]
    if bundle.gps is not None:
        blocks.append((est.gps_error(bundle.gps, t_vm, t_gm), "gps"))
    for match in bundle.light_matches:
        try:
            e = est.light_error(match, t_vm, smap, cam)
        except BehindCamera:
            raise RuntimeError("term structure changed")
        blocks.append((e, "light"))
    for match, y_rows in bundle.lane_matches:
        try:
            e = est.lane_error(match, y_rows, t_vm, cam)
        except (BehindCamera, HorizontalLine, ValueError):
            raise RuntimeError("term structure changed")
        blocks.append((e, "lane"))
    if bundle.wheel is not None:
        blocks.append((est.wheel_error(bundle.wheel, varpi), "wheel"))
    if bundle.use_pseudo:
        blocks.append((est.pseudo_errors(t_vm, varpi), "pseudo"))
    return blocks


def solve(pred, bundle, smap, cam, noise, tol=1e-12, max_iters=60, fd_step=1e-7):
    """Returns (t_vm, varpi, t_gm) minimizing the robustified one-step cost."""
    p_inv = np.linalg.inv(pred.cov)
    p_inv = 0.5 * (p_inv + p_inv.T)
    base_infos = {
        "gps": np.linalg.inv(noise.r_vg),
        "light": np.linalg.inv(noise.r_light),
        "lane": np.linalg.inv(noise.r_lane),
        "wheel": np.linalg.inv(noise.r_wheel),
        "pseudo": np.diag(1.0 / noise.r_pseudo),
    }
    robust = {"light", "lane"}

    def weights_at(blocks):
        out = []
        prior = np.concatenate([e for e, k in blocks[:3]])
        out.append(("prior", p_inv))
        for e, kind in blocks[3:]:
            w = base_infos[kind]
            if kind in robust:
                w = w / (1.0 + float(e @ w @ e))
            out.append((kind, w))
        return out

    def stacked(blocks):
        return np.concatenate([e for e, _ in blocks])

    def objective(blocks, weights):
        prior = np.concatenate([e for e, _ in blocks[:3]])
        total = 0.5 * float(prior @ weights[0][1] @ prior)
        for (e, _), (_, w) in zip(blocks[3:], weights[1:]):
            total += 0.5 * float(e @ w @ e)
        return total

    d = np.zeros(18)
    for _ in range(max_iters):
        blocks = _residual_blocks(pred, bundle, smap, cam, d)
        weights = weights_at(blocks)
        # numeric Jacobian of the full stack w.r.t. d
        jac = np.zeros((len(stacked(blocks)), 18))
        for i in range(18):
            step = np.zeros(18)
            step[i] = fd_step
            r_plus = stacked(_residual_blocks(pred, bundle, smap, cam, d + step))
            r_minus = stacked(_residual_blocks(pred, bundle, smap, cam, d - step))
            jac[:, i] = (r_plus - r_minus) / (2.0 * fd_step)
        a_mat = np.zeros((18, 18))
        b_vec = np.zeros(18)
        row = 0
        prior_e = np.concatenate([e for e, _ in blocks[:3]])
        j_prior = jac[0:18, :]
        a_mat += j_prior.T @ p_inv @ j_prior
        b_vec -= j_prior.T @ p_inv @ prior_e
        row = 18
        for (e, _), (_, w) in zip(blocks[3:], weights[1:]):
            n = len(e)
            j = jac[row:row + n, :]
            a_mat += j.T @ w @ j
            b_vec -= j.T @ w @ e
            row += n
        dx = np.linalg.solve(a_mat, b_vec)
        j0 = objective(blocks, weights)
        alpha = 1.0
        accepted = False
        for _ in range(6):
            trial_blocks = _residual_blocks(pred, bundle, smap, cam, d + alpha * dx)
            if objective(trial_blocks, weights) <= j0 + 1e-15:
                d = d + alpha * dx
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        if np.linalg.norm(alpha * dx) < tol:
            break
    return _unpack(pred, d)


def state_distance(a, b):
    """Scalar distance between two (t_vm, varpi, t_gm) triples."""
    d_vm = np.linalg.norm(lg.log_se3(lg.compose(a[0], lg.inverse(b[0]))))
    d_v = np.linalg.norm(a[1] - b[1])
    d_gm = np.linalg.norm(lg.log_se3(lg.compose(a[2], lg.inverse(b[2]))))
    return d_vm + d_v + d_gm
