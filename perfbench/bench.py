"""semloc benchmark: closed-loop scenario runs through the public library path.

One run of a workload, in one process:

1. set-up time: ``config.from_dict`` + ``generate_world`` +
   ``generate_trajectory`` + ``true_offsets``, repeated, median;
2. a reference run of the workload with scenario seed 1 (the acceptance
   tests' seed). It warms the process up, and its errors give the accuracy
   metrics and, on ``nominal``, the acceptance-budget check. Accuracy differs
   by 30-60% between noise seeds over a short run, so it is scored on a
   fixed scenario, where any change in accuracy is a change in the program;
3. the timed window: the workload run again and again (``config.from_dict``
   -> ``pipeline.run_scenario`` -> ``cli.write_artifacts``) until
   ``--seconds`` is used, at least twice. The first two runs use scenario
   seed ``--seed``, so their artifacts must match; each later run gets a
   fresh seed derived from it, so the tail of the per-frame times comes from
   more than one scenario. It is a closed loop with one caller and no
   pacing: each frame starts when the previous one ends. With tracing,
   untraced and traced runs alternate.

The deterministic artifacts of the two runs of seed ``--seed`` must hash
the same. A run that raises one of ``ESTIMATOR_ERRORS`` fails the frames it
did not finish; a run whose output check fails fails all of its frames.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from semloc import cli, config, evaluation, liegroup, pipeline, simulator
from semloc.estimator import SingularNormalEquations

from tracing import LocalizeTimer, Tracer

DURATION_S = 30.0  # simulated seconds per scenario run: 300 frames at 10 Hz
REFERENCE_SEED = 1
SETUP_REPEATS = 15
MIN_TIMED_RUNS = 2
SEED_STRIDE = 100_003  # between the scenario seeds of successive timed runs
DETERMINISTIC_ARTIFACTS = ("frames.csv", "summary.json", "offset_convergence.csv")
ESTIMATOR_ERRORS = (SingularNormalEquations, liegroup.NearPiRotation,
                    np.linalg.LinAlgError, evaluation.EmptyInput)

# Acceptance budgets of the nominal scenario (tests/test_acceptance.py).
NOMINAL_LATERAL_MEDIAN_MAX_M = 0.10
NOMINAL_FINAL_OFFSET_MAX_M = 0.1

END_TO_END_UNITS = {
    "frames_per_s": "frames/s",
    "localize_ms.p50": "ms",
    "localize_ms.p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lateral_median_m": "m",
    "lateral_p95_m": "m",
    "final_offset_err_m": "m",
}


def _nominal(doc: dict, duration: float) -> dict:
    return doc


def _dense_lanes(doc: dict, duration: float) -> dict:
    doc["estimator"]["subsample_stride"] = 1
    return doc


def _dropout_outliers(doc: dict, duration: float) -> dict:
    # Keep the preset's on/off rhythm (GPS half of the time, ending in a
    # dropout) at the benchmark's scenario length.
    scale = duration / doc["scenario"]["duration"]
    doc["scenario"]["dropout_schedule"] = [
        [start * scale, end * scale] for start, end in doc["scenario"]["dropout_schedule"]
    ]
    doc["scenario"]["outlier_rate"] = 0.2
    return doc


# name -> (preset, change to it); why each is here is in BENCHMARK.json.
WORKLOADS = {
    "nominal": ("nominal", _nominal),
    "dense_lanes": ("nominal", _dense_lanes),
    "dropout_outliers": ("dropout_30_60", _dropout_outliers),
}


def workload_config(name: str, seed: int, duration: float = DURATION_S) -> dict:
    """The config document the program receives; a pure function of its args."""
    preset, change = WORKLOADS[name]
    doc = change(config.preset(preset), duration)
    doc["scenario"]["seed"] = seed
    doc["scenario"]["duration"] = duration
    return doc


def timed_seed(seed: int, k: int) -> int:
    """Scenario seed of the k-th timed run: ``seed`` twice, then fresh ones."""
    return seed + max(k - 1, 0) * SEED_STRIDE


def setup_seconds(doc: dict) -> float:
    t0 = time.perf_counter()
    cfg = config.from_dict(doc)
    smap = simulator.generate_world(cfg.scenario)
    simulator.generate_trajectory(cfg.scenario, smap)
    simulator.true_offsets(cfg.scenario)
    return time.perf_counter() - t0


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    rank = int(np.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[max(rank, 1) - 1])


@dataclass
class ScenarioRun:
    attempted: int
    failed: int = 0
    wall_s: float = 0.0
    digest: str | None = None
    artifact_bytes: int = 0
    errors: list = field(default_factory=list)
    localize_ms: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def run_once(doc: dict, out_dir: Path, instrument) -> ScenarioRun:
    """One config -> run_scenario -> write_artifacts pass under ``instrument``."""
    corrects_before = instrument.corrects_ok
    with instrument:
        cfg = config.from_dict(doc)
        sc = cfg.scenario
        run = ScenarioRun(attempted=sc.n_frames)
        t0 = time.perf_counter()
        try:
            result = pipeline.run_scenario(cfg)
            cli.write_artifacts(result, out_dir)
        except ESTIMATOR_ERRORS:
            run.wall_s = time.perf_counter() - t0
            # Frames up to the GPS bootstrap need no correction; every frame
            # after it counts once its correct() returned.
            boot = next((k for k in range(sc.n_frames) if not sc.gps_dropped(k * sc.dt)),
                        sc.n_frames)
            corrects = instrument.corrects_ok - corrects_before
            run.failed = max(sc.n_frames - boot - 1 - corrects, 0)
            if run.failed == 0:  # raised after the last frame, in write_artifacts
                run.failed = sc.n_frames
            return run
        run.wall_s = time.perf_counter() - t0
    digest = hashlib.sha256()
    for name in DETERMINISTIC_ARTIFACTS:
        digest.update((out_dir / name).read_bytes())
    run.digest = digest.hexdigest()
    run.artifact_bytes = sum((out_dir / name).stat().st_size for name in cli.ARTIFACTS)
    run.errors = result.frame_errors
    if isinstance(instrument, LocalizeTimer):
        run.localize_ms = instrument.samples_ms
    return run


def accuracy(run: ScenarioRun, burn_in: float) -> dict:
    """Post-burn-in lateral error and last-frame offset error, in metres."""
    scored = [e for e in run.errors if e.t >= burn_in] or run.errors
    lateral = evaluation.summarize(scored)["lateral"]
    return {
        "lateral_median_m": lateral["median"],
        "lateral_p95_m": lateral["p95"],
        "final_offset_err_m": run.errors[-1].offset_err,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, duration: float = DURATION_S) -> dict:
    """Run one workload and return the result object the command prints.

    Besides the contract keys it carries ``table``: every metric of the run,
    untraced and traced alike, as name -> (value, unit).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = workload_config(workload, seed, duration)
    ref_doc = workload_config(workload, REFERENCE_SEED, duration)
    params = config.from_dict(doc).estimator

    setup_s = statistics.median(setup_seconds(doc) for _ in range(SETUP_REPEATS))

    reference = run_once(ref_doc, out_dir / "reference", LocalizeTimer())
    acc = None
    if reference.failed == 0:
        acc = accuracy(reference, params.burn_in)
        if workload == "nominal" and not (
                acc["lateral_median_m"] <= NOMINAL_LATERAL_MEDIAN_MAX_M
                and acc["final_offset_err_m"] < NOMINAL_FINAL_OFFSET_MAX_M):
            reference.failed = reference.attempted

    kinds = ("untraced", "traced") if trace else ("untraced",)
    tracer = Tracer(params.max_iters)
    timed: list[tuple[str, ScenarioRun]] = []
    last_wall = {}
    window_start = time.perf_counter()
    while True:
        kind = kinds[len(timed) % len(kinds)]
        elapsed = time.perf_counter() - window_start
        next_wall = last_wall.get(kind, max(last_wall.values(), default=0.0))
        if len(timed) >= max(MIN_TIMED_RUNS, len(kinds)) and elapsed + next_wall > seconds:
            break
        instrument = tracer if kind == "traced" else LocalizeTimer()
        run_doc = workload_config(workload, timed_seed(seed, len(timed)), duration)
        run = run_once(run_doc, out_dir / "timed", instrument)
        last_wall[kind] = run.wall_s
        timed.append((kind, run))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    repeated = [run for _, run in timed[:2]]  # both ran scenario seed ``seed``
    if len({run.digest for run in repeated}) > 1:
        for run in repeated:
            run.failed = run.attempted

    untraced = [run for kind, run in timed if kind == "untraced"]
    everything = [reference] + [run for _, run in timed]
    attempted = sum(run.attempted for run in everything)
    failed = sum(run.failed for run in everything)

    def fps(runs):
        wall = sum(run.wall_s for run in runs)
        return sum(run.completed for run in runs) / wall if wall else 0.0

    samples = [ms for run in untraced if run.failed == 0 for ms in run.localize_ms]
    acc = acc or dict.fromkeys(("lateral_median_m", "lateral_p95_m", "final_offset_err_m"), 0.0)
    values = {
        "frames_per_s": fps(untraced),
        "localize_ms.p50": nearest_rank(samples, 50.0) if samples else 0.0,
        "localize_ms.p99": nearest_rank(samples, 99.0) if samples else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        **acc,
    }
    table = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    table["failed_frames_ratio"] = (failed / attempted, "1")
    table["localize_ms.samples"] = (float(len(samples)), "count")
    table["timed_runs"] = (float(len(timed)), "count")
    if trace:
        traced = [run for kind, run in timed if kind == "traced"]
        layers = tracer.layer_metrics()
        layers["cli.artifact_bytes"] = (float(traced[0].artifact_bytes), "bytes")
        layers["trace.overhead_frames_per_s"] = (fps(untraced) - fps(traced), "frames/s")
        tracer.save(out_dir / "spans.npz")
        metrics = layers
        table.update(layers)
    else:
        metrics = {name: table[name] for name in END_TO_END_UNITS}

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "table": table,
    }


def clean_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def main(args, checkout: Path) -> int:
    out_dir = clean_dir(checkout / ".perfbench_out"
                        / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    for name, (value, unit) in result.pop("table").items():
        print(f"{name:<56} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0
