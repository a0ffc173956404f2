"""Acceptance suite: one test per shipping criterion, each printing a single
PASS/FAIL line with the measured value against its stated tolerance."""

import copy
import time

import numpy as np
import pytest

import gn_oracle
from semloc import config as cm
from semloc import estimator as est
from semloc import evaluation as ev
from semloc import liegroup as lg
from semloc import pipeline
from semloc import simulator as sim


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _series_exp(xi, n_terms=30):
    m = lg.se3_wedge(xi)
    out, term = np.eye(4), np.eye(4)
    for k in range(1, n_terms):
        term = term @ m / k
        out = out + term
    return out


def _run(preset_name, **scenario_overrides):
    doc = copy.deepcopy(cm.preset(preset_name))
    doc["scenario"].update(scenario_overrides)
    cfg = cm.from_dict(doc)
    start = time.perf_counter()
    result = pipeline.run_scenario(cfg)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def nominal_run():
    return _run("nominal")


@pytest.fixture(scope="module")
def dropout_run():
    return _run("dropout_30_60")


@pytest.fixture(scope="module")
def outlier_run():
    return _run("nominal", outlier_rate=0.2)


def _post_burn_in(result, burn_in=10.0):
    return [e for e in result.frame_errors if e.t >= burn_in]


# --- criterion 1: Lie-group suite --------------------------------------------


def test_lie_group_suite():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst_rt = 0.0
    worst_series = 0.0
    for _ in range(1000):
        phi = rng.normal(size=3)
        norm = np.linalg.norm(phi)
        phi = phi / norm * rng.uniform(0.0, 3.0)
        xi = np.r_[rng.normal(0.0, 5.0, 3), phi]
        pose = lg.exp_se3(xi)
        worst_rt = max(worst_rt, np.abs(lg.log_se3(pose) - xi).max())
        worst_series = max(worst_series, np.abs(pose.t - _series_exp(xi)).max())
    elapsed = time.perf_counter() - start
    ok = worst_rt < 1e-9 and worst_series < 1e-9 and elapsed < 1.0
    _report(
        "lie-group suite",
        ok,
        f"round-trip {worst_rt:.2e} < 1e-9, series {worst_series:.2e} < 1e-9, "
        f"{elapsed:.2f}s < 1s",
    )


# --- criterion 2: Jacobian suite ----------------------------------------------


def test_jacobian_suite():
    from semloc.geometry import point_projection_jacobian, project_point
    rng = np.random.default_rng(1)
    cam = sim.default_camera()
    scenario = sim.Scenario()
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    noise = est.NoiseConfig.default()
    dt = scenario.dt
    h = 1e-6
    start = time.perf_counter()
    worst = {"F": 0.0, "E": 0.0, "G": 0.0, "projection": 0.0}

    for _ in range(200):
        frame = truth[rng.integers(0, len(truth))]
        t_vm = lg.compose(
            lg.exp_se3(np.r_[rng.normal(0, 0.3, 3), rng.normal(0, 0.05, 3)]),
            frame.t_vm_true,
        )
        varpi = frame.varpi_true + rng.normal(0, 0.2, 6)
        t_gm = lg.exp_se3(np.r_[rng.normal(0, 1.0, 3), rng.normal(0, 0.1, 3)])
        pred = est.EstimatorState(
            lg.compose(lg.exp_se3(np.r_[rng.normal(0, 0.2, 3),
                                        rng.normal(0, 0.03, 3)]), t_vm),
            varpi + rng.normal(0, 0.1, 6),
            lg.exp_se3(np.r_[rng.normal(0, 0.5, 3), rng.normal(0, 0.05, 3)]),
            np.eye(18),
        )
        gps = lg.compose(
            lg.exp_se3(np.r_[rng.normal(0, 0.3, 3), rng.normal(0, 0.02, 3)]),
            lg.compose(t_vm, lg.inverse(t_gm)),
        )
        origin = lg.inverse(t_vm).translation
        light = next(
            (l for l in smap.lights
             if len(sim._visible_pixels(l.position, t_vm, cam, 100.0))),
            None,
        )

        # F: transition Jacobian vs FD of the propagated state delta
        base = est.predict(est.EstimatorState(t_vm, varpi, t_gm, np.eye(18)),
                           dt, noise)

        def propagated(tv, vp, tg):
            out = est.predict(est.EstimatorState(tv, vp, tg, np.eye(18)),
                              dt, noise)
            return np.concatenate([
                lg.log_se3(lg.compose(out.t_vm, lg.inverse(base.t_vm))),
                out.varpi - base.varpi,
                lg.log_se3(lg.compose(out.t_gm, lg.inverse(base.t_gm))),
            ])

        # E and G: prior + stacked measurement residuals
        def residuals(tv, vp, tg):
            parts = [est._prior_terms(tv, vp, tg, pred)[0],
                     est.gps_error(gps, tv, tg)]
            if light is not None:
                from semloc.association import LightMatch
                det = project_point(light.position, t_vm, cam)
                parts.append(est.light_error(
                    LightMatch(det, light.id), tv, smap, cam))
            parts.append(est.wheel_error((8.0, 0.1), vp))
            parts.append(est.pseudo_errors(tv, vp))
            return np.concatenate(parts)

        f_analytic = est.transition_jacobian(varpi, dt)
        e_v, e_analytic = est._prior_terms(t_vm, varpi, t_gm, pred)
        _, h_gps = est._gps_jacobian(gps, t_vm, t_gm)
        rows = [h_gps]
        if light is not None:
            from semloc.association import LightMatch
            det = project_point(light.position, t_vm, cam)
            _, h_light = est._light_jacobian(
                LightMatch(det, light.id), t_vm, smap, cam)
            rows.append(h_light)
        rows.append(est._WHEEL_H)
        rows.append(est._pseudo_jacobian(t_vm, varpi)[1])
        g_analytic = np.vstack(rows)

        fd_f = np.zeros((18, 18))
        n_res = 18 + g_analytic.shape[0]
        fd_eg = np.zeros((n_res, 18))
        for i in range(18):
            d = np.zeros(18)
            d[i] = h
            plus = est.apply_perturbation(t_vm, varpi, t_gm, d)
            minus = est.apply_perturbation(t_vm, varpi, t_gm, -d)
            fd_f[:, i] = (propagated(*plus) - propagated(*minus)) / (2 * h)
            fd_eg[:, i] = (residuals(*plus) - residuals(*minus)) / (2 * h)

        def rel(a, b):
            return float(np.abs(a - b).max()) / max(1.0, float(np.abs(b).max()))

        worst["F"] = max(worst["F"], rel(f_analytic, fd_f))
        worst["E"] = max(worst["E"], rel(e_analytic, fd_eg[0:18, :]))
        worst["G"] = max(worst["G"], rel(g_analytic, fd_eg[18:, :]))

        if light is not None:
            _, j_proj = point_projection_jacobian(light.position, t_vm, cam)
            fd_proj = np.zeros((2, 6))
            for i in range(6):
                d6 = np.zeros(6)
                d6[i] = h
                plus = lg.compose(lg.exp_se3(d6), t_vm)
                minus = lg.compose(lg.exp_se3(-d6), t_vm)
                fd_proj[:, i] = (
                    project_point(light.position, plus, cam)
                    - project_point(light.position, minus, cam)
                ) / (2 * h)
            worst["projection"] = max(worst["projection"], rel(j_proj, fd_proj))

    elapsed = time.perf_counter() - start
    worst_all = max(worst.values())
    ok = worst_all < 1e-5 and elapsed < 10.0
    _report(
        "jacobian suite",
        ok,
        "max relative error "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f" < 1e-5 over 200 states, {elapsed:.1f}s < 10s",
    )


# --- criterion 3: correction vs brute-force oracle ----------------------------


def test_correction_step_oracle():
    from semloc.config import EstimatorParams
    rng = np.random.default_rng(2)
    cam = sim.default_camera()
    scenario = sim.Scenario(seed=7)
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    noise = est.NoiseConfig.default()
    params = EstimatorParams()
    cov = np.diag(np.concatenate([
        np.full(3, 0.5), np.full(3, 0.01),
        np.full(3, 0.2), np.full(3, 0.01),
        np.full(3, 0.5), np.full(3, 0.01),
    ]))

    start = time.perf_counter()
    worst = 0.0
    n_done = 0
    frame_idx = rng.choice(len(truth), size=120, replace=False)
    for k in frame_idx:
        if n_done >= 50:
            break
        frame = truth[k]
        sensor = sim.simulate_frame(frame, scenario, smap, cam, int(k))
        pred_mean = lg.compose(
            lg.exp_se3(np.r_[rng.normal(0, 0.1, 3), rng.normal(0, 0.01, 3)]),
            frame.t_vm_true,
        )
        pred = est.EstimatorState(pred_mean, frame.varpi_true,
                                  lg.Pose.identity(), cov)
        bundle = pipeline.associate_frame(sensor, pred, smap, cam, params,
                                          scenario.dt)
        # keep the stack small so the FD oracle stays fast
        bundle = est.MeasurementBundle(
            dt=bundle.dt,
            gps=bundle.gps,
            light_matches=bundle.light_matches[:2],
            lane_matches=bundle.lane_matches[:2],
            wheel=bundle.wheel,
        )
        post = est.correct(pred, bundle, smap, cam, noise, tol=1e-12, max_iters=50)
        try:
            oracle = gn_oracle.solve(pred, bundle, smap, cam, noise)
        except RuntimeError:
            continue  # a term left the camera frustum mid-solve; skip
        worst = max(worst, gn_oracle.state_distance(
            (post.t_vm, post.varpi, post.t_gm), oracle))
        n_done += 1
    elapsed = time.perf_counter() - start
    ok = n_done == 50 and worst < 1e-6 and elapsed < 30.0
    _report(
        "correction-step oracle",
        ok,
        f"{n_done} problems, max deviation {worst:.2e} < 1e-6, "
        f"{elapsed:.1f}s < 30s",
    )


# --- criterion 4: nominal scenario --------------------------------------------


def test_nominal_scenario(nominal_run):
    result, elapsed = nominal_run
    errors = result.frame_errors
    off_at_60 = min(e.offset_err for e in errors if 55.0 <= e.t <= 60.0)
    off_final = errors[-1].offset_err
    summary = ev.summarize(_post_burn_in(result))
    lat = summary["lateral"]["median"]
    lon = summary["longitudinal"]["median"]
    ok = (off_at_60 < 0.2 and off_final < 0.1 and lat <= 0.10
          and lon <= 0.15 and elapsed < 60.0)
    _report(
        "nominal scenario",
        ok,
        f"offset {off_at_60:.3f}m < 0.2 within 60s, final {off_final:.3f}m < 0.1, "
        f"median lat {lat:.3f}m <= 0.10, lon {lon:.3f}m <= 0.15, "
        f"{elapsed:.0f}s < 60s",
    )


# --- criterion 5: GPS dropout scenario ----------------------------------------


def test_dropout_scenario(nominal_run, dropout_run):
    nominal, _ = nominal_run
    dropped, elapsed = dropout_run
    s_nom = ev.summarize(_post_burn_in(nominal))
    s_drop = ev.summarize(_post_burn_in(dropped))
    lat_ratio = s_drop["lateral"]["median"] / s_nom["lateral"]["median"]
    head_ratio = s_drop["heading"]["median"] / s_nom["heading"]["median"]
    lon_p99_ratio = s_drop["longitudinal"]["p99"] / s_nom["longitudinal"]["p99"]
    off_final = dropped.frame_errors[-1].offset_err
    ok = (lat_ratio <= 1.5 and head_ratio <= 1.5 and lon_p99_ratio <= 3.0
          and off_final < 0.3 and elapsed < 60.0)
    _report(
        "dropout_30_60 scenario",
        ok,
        f"median lat x{lat_ratio:.2f} <= 1.5, heading x{head_ratio:.2f} <= 1.5, "
        f"lon p99 x{lon_p99_ratio:.2f} <= 3, final offset {off_final:.3f}m < 0.3, "
        f"{elapsed:.0f}s < 60s",
    )


# --- criterion 6: outlier robustness ------------------------------------------


def test_outlier_robustness(nominal_run, outlier_run):
    nominal, _ = nominal_run
    dirty, _ = outlier_run
    lat_clean = ev.summarize(_post_burn_in(nominal))["lateral"]["median"]
    lat_dirty = ev.summarize(_post_burn_in(dirty))["lateral"]["median"]
    ratio = lat_dirty / lat_clean
    ok = ratio <= 2.0  # the run completing at all is implied by the fixture
    _report(
        "outlier robustness",
        ok,
        f"20% outliers completed, median lateral x{ratio:.2f} <= 2.0",
    )


# --- criterion 7: covariance health -------------------------------------------


def test_covariance_health(nominal_run, dropout_run):
    worst_eig = np.inf
    worst_asym = 0.0
    worst_increase = 0.0
    for result, _ in (nominal_run, dropout_run):
        worst_eig = min(worst_eig, min(result.min_cov_eigenvalues))
        worst_asym = max(worst_asym, max(result.cov_asymmetry))
        for frame_objs in result.gn_objectives:
            for j0, j1 in frame_objs:
                worst_increase = max(worst_increase, j1 - j0)
    ok = worst_eig > 0.0 and worst_asym <= 1e-12 and worst_increase <= 1e-9
    _report(
        "covariance health",
        ok,
        f"min eigenvalue {worst_eig:.2e} > 0, asymmetry {worst_asym:.2e}, "
        f"max GN objective increase {worst_increase:.2e} <= 1e-9",
    )


# --- criterion 8: determinism --------------------------------------------------


def test_determinism(nominal_run, tmp_path):
    from semloc import cli
    first, _ = nominal_run
    second, _ = _run("nominal")
    cli.write_artifacts(first, tmp_path / "a")
    cli.write_artifacts(second, tmp_path / "b")
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("frames.csv", "offset_convergence.csv")
    )
    _report("determinism", same, "re-run CSV artifacts byte-identical")
