import copy
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from semloc import cli
from semloc import config as cm
from semloc import liegroup as lg
from semloc import pipeline
from semloc.simulator import Scenario


# --- configuration -----------------------------------------------------------


def test_config_round_trip():
    cfg = cm.from_dict(cm.preset("nominal"))
    doc = cm.to_dict(cfg)
    again = cm.from_dict(doc)
    assert cm.to_dict(again) == doc
    assert np.allclose(cfg.scenario.offset_true.translation, [2.0, 2.0, 0.0])


# A non-default value for every field of every section, in JSON form.
EVERY_FIELD = {
    "scenario": {
        "seed": 7, "duration": 4.0, "rate": 5.0,
        "offset": {"translation": [1.0, -0.5, 0.0], "yaw": 0.25},
        "dropout_schedule": [[1.0, 2.0]],
        "detection_noise_px": 2.0, "gps_noise_trans_std": 0.2,
        "gps_noise_rot_std": 0.02, "wheel_noise_v_std": 0.1,
        "wheel_noise_w_std": 0.01, "outlier_rate": 0.1, "block_size": 100.0,
        "lane_spacing": 3.0, "speed": 7.0, "turn_radius": 9.0,
        "offset_drift_trans_std": 0.01, "offset_drift_rot_std": 0.001,
    },
    "camera": {
        "fx": 600.0, "fy": 610.0, "cx": 600.0, "cy": 350.0,
        "width": 1200, "height": 700,
        "t_cv": [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.6],
                 [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    },
    "noise": {
        "q_c_diag": [1.0, 1e-6, 1e-6, 1e-6, 1e-6, 0.2],
        "q_gm_diag": [2e-6, 2e-6, 2e-6, 2e-8, 2e-8, 2e-8],
        "r_vg_diag": [0.1, 0.1, 0.1, 2e-4, 2e-4, 2e-4],
        "r_light_diag": [9.0, 9.0], "r_lane_diag": [3.0, 3.0],
        "r_wheel_diag": [1e-3, 1e-5], "r_pseudo": [2e-4, 2e-4, 2e-4, 2e-4],
    },
    "estimator": {
        "tol": 1e-7, "max_iters": 8, "light_gate": 30.0, "lane_gate": 20.0,
        "icp_iters": 2, "light_radius": 90.0, "lane_radius": 45.0,
        "subsample_stride": 3, "bottom_fraction": 0.6, "min_lane_support": 5,
        "min_line_angle_deg": 15.0, "burn_in": 5.0, "cov0_diag": [2.0] * 18,
    },
}


def test_config_round_trip_sets_every_field():
    doc = {"schema_version": cm.SCHEMA_VERSION, **copy.deepcopy(EVERY_FIELD)}
    cfg = cm.from_dict(doc)
    echoed = cm.to_dict(cfg)
    default = cm.to_dict(cm.RunConfig())
    for section in fields(cfg):
        # one JSON key per dataclass field, each set away from its default
        assert len(echoed[section.name]) == len(fields(getattr(cfg, section.name)))
        for key, value in echoed[section.name].items():
            assert value != default[section.name][key], f"{section.name}.{key}"
    assert echoed == doc
    assert cm.to_dict(cm.from_dict(echoed)) == echoed


def test_config_json_reruns_byte_for_byte(tmp_path):
    scenario = Scenario(seed=3, duration=3.0)
    first = tmp_path / "first"
    cli.write_artifacts(pipeline.run_scenario(cm.RunConfig(
        scenario=replace(scenario, lane_spacing=3.0),
        estimator=cm.EstimatorParams(subsample_stride=3))), first)
    again = tmp_path / "again"
    assert cli.main(["run", "--config", str(first / "config.json"),
                     "--out", str(again)]) == 0
    assert (again / "frames.csv").read_bytes() == (first / "frames.csv").read_bytes()
    # the two fields matter: with their defaults the run differs
    plain = tmp_path / "plain"
    cli.write_artifacts(pipeline.run_scenario(cm.RunConfig(scenario=scenario)), plain)
    assert (plain / "frames.csv").read_bytes() != (first / "frames.csv").read_bytes()


@pytest.mark.parametrize("section, key, value", [
    ("scenario", "dropout_schedule", 5),
    ("estimator", "cov0_diag", 5),
    ("scenario", "offset", 5),
    (None, "scenario", []),
    ("scenario", "seed", "abc"),
    ("estimator", "max_iters", "x"),
    ("estimator", "subsample_stride", 0),
    ("estimator", "light_gate", 0),
    ("estimator", "lane_radius", -1),
    ("scenario", "outlier_rate", 2.0),
    ("scenario", "detection_noise_px", -1),
    ("scenario", "gps_noise_trans_std", -1),
    ("scenario", "wheel_noise_v_std", -1),
    ("scenario", "seed", -1),
    ("scenario", "speed", 0),
    ("estimator", "max_iters", -3),
    ("estimator", "icp_iters", -1),
], ids=["dropout_schedule", "cov0_diag", "offset", "scenario", "seed",
        "max_iters", "subsample_stride", "light_gate", "lane_radius",
        "outlier_rate", "detection_noise_px", "gps_noise_trans_std",
        "wheel_noise_v_std", "seed_negative", "speed_zero", "max_iters_negative",
        "icp_iters_negative"])
def test_config_malformed_value(tmp_path, section, key, value):
    doc = cm.preset("nominal")
    (doc[section] if section else doc)[key] = value
    with pytest.raises(cm.ConfigError):
        cm.from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_config_unknown_key_rejected():
    doc = cm.preset("nominal")
    doc["scenario"]["typo_key"] = 1
    with pytest.raises(cm.ConfigError):
        cm.from_dict(doc)


def test_config_bad_schema_version():
    doc = cm.preset("nominal")
    doc["schema_version"] = 99
    with pytest.raises(cm.ConfigError):
        cm.from_dict(doc)


def test_config_loads_invalid_json():
    with pytest.raises(cm.ConfigError):
        cm.loads("{nope")


def test_preset_names():
    assert set(cm.PRESETS) == {"nominal", "dropout_30_60"}
    dropped = cm.from_dict(cm.preset("dropout_30_60"))
    assert dropped.scenario.dropout_schedule == ((30.0, 60.0), (90.0, 120.0))
    with pytest.raises(cm.ConfigError):
        cm.preset("unknown")


def test_config_overrides_noise_and_camera():
    doc = cm.preset("nominal")
    doc["noise"] = {"r_light_diag": [9.0, 9.0]}
    doc["camera"] = {"fx": 700.0}
    cfg = cm.from_dict(doc)
    assert cfg.noise.r_light[0, 0] == 9.0
    assert cfg.camera.fx == 700.0


def test_config_yaw_offset():
    doc = cm.preset("nominal")
    doc["scenario"]["offset"] = {"translation": [1.0, 0.0, 0.0], "yaw": 0.2}
    cfg = cm.from_dict(doc)
    pose = cfg.scenario.offset_true
    assert abs(np.arctan2(pose.rotation[1, 0], pose.rotation[0, 0]) - 0.2) < 1e-12


# --- command line ------------------------------------------------------------


def short_config(tmp_path, **scenario_overrides):
    doc = cm.preset("nominal")
    doc["scenario"]["duration"] = 8.0
    doc["scenario"].update(scenario_overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_cli_run_writes_artifacts(tmp_path):
    cfg_path = short_config(tmp_path)
    out = tmp_path / "run_a"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in cli.ARTIFACTS:
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == cm.SCHEMA_VERSION
    assert summary["n_frames"] == 80
    assert summary["gps_present_fraction"] == 1.0
    # resolved config echo is itself a loadable config
    echoed = cm.loads((out / "config.json").read_text())
    assert echoed.scenario.duration == 8.0


def test_cli_compare_run_to_itself(tmp_path):
    cfg_path = short_config(tmp_path)
    out = tmp_path / "run_a"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = cli.compare(out, out)
    for metric, stats in report["delta"].items():
        assert all(v == 0.0 for v in stats.values())
    assert cli.main(["compare", str(out), str(out)]) == 0


def test_cli_compare_missing_artifact(tmp_path, capsys):
    assert cli.main(["compare", str(tmp_path / "nope"), str(tmp_path / "nope")]) == 2


def test_cli_compare_schema_mismatch(tmp_path):
    cfg_path = short_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cli.main(["run", "--config", str(cfg_path), "--out", str(out_a)])
    cli.main(["run", "--config", str(cfg_path), "--out", str(out_b)])
    doc = json.loads((out_b / "summary.json").read_text())
    doc["schema_version"] = 99
    (out_b / "summary.json").write_text(json.dumps(doc))
    assert cli.main(["compare", str(out_a), str(out_b)]) == 2


def test_cli_bad_config_exit_code(tmp_path):
    missing = tmp_path / "missing.json"
    assert cli.main(["run", "--config", str(missing), "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    # empty object lacks schema_version
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_dump_map(tmp_path, capsys):
    assert cli.main(["dump-map", "--config", "nominal"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert set(doc) == {"lanes", "lights"}
    assert len(doc["lights"]) == 16


def test_cli_run_accepts_preset_name(tmp_path):
    # presets resolve by name; config echo matches the preset
    cfg = cli.load_config("nominal")
    assert cfg.scenario.duration == 120.0


def test_cli_dropout_gps_fraction(tmp_path):
    cfg_path = short_config(tmp_path, duration=20.0,
                            dropout_schedule=[[5.0, 15.0]])
    out = tmp_path / "run_drop"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gps_present_fraction"] == 0.5
    frames = (out / "frames.csv").read_text().strip().split("\n")[1:]
    present = [line.rsplit(",", 1)[1] for line in frames]
    assert present.count("0") == 100


def test_frames_align_with_gps_flags_after_late_bootstrap(tmp_path):
    # no GPS in the first second: rows start at the bootstrap fix, t = 1.0
    cfg_path = short_config(tmp_path, duration=3.0, dropout_schedule=[[0.0, 1.0]])
    out = tmp_path / "late"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = (out / "frames.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 20
    assert rows[0].split(",")[0] == "1"
    assert rows[0].rsplit(",", 1)[1] == "1"
    # the fraction counts the same rows, so the outage before bootstrap is not in it
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gps_present_fraction"] == 1.0


def test_cli_run_without_gps_fix_exits_3(tmp_path, capsys):
    cfg_path = short_config(tmp_path, duration=2.0, dropout_schedule=[[0.0, 2.0]])
    out = tmp_path / "never"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "EmptyInput" in capsys.readouterr().err
    assert not any((out / name).exists() for name in cli.ARTIFACTS)
