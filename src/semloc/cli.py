"""Experiment orchestration command line.

Subcommands:
  run --config <path-or-preset> --out <dir>   run a scenario, write artifacts
  compare <dirA> <dirB>                       paired summary-metric deltas
  dump-map --config <path-or-preset>          print the generated map JSON

Exit codes: 0 success, 2 configuration or artifact error, 3 run failure
(one of RUN_FAILURES: the estimator failed, or no frame could be scored).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import evaluation, pipeline, simulator
from .estimator import SingularNormalEquations
from .liegroup import NearPiRotation
from .semantic_map import save_map

ARTIFACTS = ("frames.csv", "summary.json", "offset_convergence.csv", "config.json")
# Failures of a run with a valid config; `semloc run` exits 3 on them.
RUN_FAILURES = (SingularNormalEquations, NearPiRotation, np.linalg.LinAlgError,
                evaluation.EmptyInput)


class MissingArtifact(FileNotFoundError):
    """A compare input lacks a required artifact."""


def load_config(name_or_path: str) -> config_mod.RunConfig:
    """Resolve a preset name or read a JSON config file."""
    if name_or_path in config_mod.PRESETS:
        return config_mod.from_dict(config_mod.preset(name_or_path))
    path = Path(name_or_path)
    if not path.exists():
        raise config_mod.ConfigError(f"config file not found: {name_or_path}")
    return config_mod.loads(path.read_text(encoding="utf-8"))


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_artifacts(result: pipeline.RunResult, out_dir: Path) -> None:
    errors = result.frame_errors
    burn_in = result.config.estimator.burn_in
    scored = [e for e in errors if e.t >= burn_in]
    summary = {
        "schema_version": config_mod.SCHEMA_VERSION,
        "n_frames": len(errors),
        "burn_in_s": burn_in,
        "gps_present_fraction": (
            sum(result.gps_present) / len(result.gps_present)
            if result.gps_present else 0.0
        ),
        "metrics": evaluation.summarize(scored if scored else errors),
        "final_offset_error_m": errors[-1].offset_err if errors else None,
        "histograms": evaluation.histograms(scored if scored else errors),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "frames.csv").write_text(
        evaluation.frames_csv(errors, result.gps_present), encoding="utf-8"
    )
    (out_dir / "offset_convergence.csv").write_text(
        evaluation.offset_csv(errors), encoding="utf-8"
    )
    (out_dir / "summary.json").write_text(_json_dumps(summary), encoding="utf-8")
    (out_dir / "config.json").write_text(
        _json_dumps(config_mod.to_dict(result.config)), encoding="utf-8"
    )


def compare(run_a: Path, run_b: Path) -> dict:
    """Delta of summary metrics (B minus A)."""
    summaries = []
    for run in (run_a, run_b):
        path = Path(run) / "summary.json"
        if not path.exists():
            raise MissingArtifact(str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("schema_version") != config_mod.SCHEMA_VERSION:
            raise MissingArtifact(f"{path}: unsupported schema version")
        summaries.append(doc)
    deltas = {}
    for metric in evaluation.METRICS:
        deltas[metric] = {
            stat: summaries[1]["metrics"][metric][stat]
            - summaries[0]["metrics"][metric][stat]
            for stat in ("median", "p95", "p99")
        }
    return {"a": str(run_a), "b": str(run_b), "delta": deltas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semloc",
        description="Semantic localization with GPS-to-map offset self-calibration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write metric artifacts")
    p_run.add_argument("--config", required=True,
                       help="config JSON path or preset name "
                            f"({', '.join(config_mod.PRESETS)})")
    p_run.add_argument("--out", required=True, help="output directory")

    p_cmp = sub.add_parser("compare", help="delta report between two runs")
    p_cmp.add_argument("run_a")
    p_cmp.add_argument("run_b")

    p_map = sub.add_parser("dump-map", help="print the generated semantic map JSON")
    p_map.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            cfg = load_config(args.config)
        except config_mod.ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            result = pipeline.run_scenario(cfg)
            write_artifacts(result, Path(args.out))
        except RUN_FAILURES as exc:
            print(f"run failure: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 3
        print(f"wrote {', '.join(ARTIFACTS)} to {args.out}")
        return 0

    if args.command == "compare":
        try:
            report = compare(Path(args.run_a), Path(args.run_b))
        except MissingArtifact as exc:
            print(f"missing artifact: {exc}", file=sys.stderr)
            return 2
        print(_json_dumps(report), end="")
        return 0

    if args.command == "dump-map":
        try:
            cfg = load_config(args.config)
        except config_mod.ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        smap = simulator.generate_world(cfg.scenario)
        sys.stdout.write(save_map(smap).decode("utf-8") + "\n")
        return 0

    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
