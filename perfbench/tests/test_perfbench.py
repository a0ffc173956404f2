"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Scenarios are shortened to SHORT simulated seconds so that every workload
runs in a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
CHECKOUT = PERFBENCH.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(PERFBENCH)]

import bench  # noqa: E402
import tracing  # noqa: E402
from semloc import estimator  # noqa: E402

SHORT = 12.0  # simulated seconds: past the 10 s burn-in, 120 frames
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, tmp_path):
    untraced = bench.run_workload(workload, 2, 0.0, False, tmp_path / "u", SHORT)
    traced = bench.run_workload(workload, 2, 0.0, True, tmp_path / "t", SHORT)

    assert _units(untraced) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (untraced, traced):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 3 * 120  # reference + two timed runs
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert (tmp_path / "t" / "spans.npz").is_file()


def test_traced_run_restores_every_wrapped_binding(tmp_path):
    before = tracing.semloc_bindings()
    result = bench.run_workload("nominal", 1, 0.0, True, tmp_path, SHORT)
    assert result["correct"]
    assert tracing.semloc_bindings() == before


def test_injected_estimator_error_counts_as_failed_frames(tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise estimator.SingularNormalEquations("injected")

    monkeypatch.setattr(estimator, "correct", singular)
    result = bench.run_workload("nominal", 1, 0.0, False, tmp_path, SHORT)

    runs = result["attempted"] // 120
    # Each run completes only its bootstrap frame (frame 0) and then raises.
    assert result["failed"] == result["attempted"] - runs
    assert not result["correct"]
    assert estimator.correct is singular


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "nominal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
