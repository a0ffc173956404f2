"""Outside-in instrumentation of semloc: function wrappers installed from here.

Nothing under ``src/`` knows about the benchmark. A wrapper replaces a
function under every name it is bound to in the loaded ``semloc`` modules
(``liegroup.compose`` is also ``estimator.compose``, ``simulator.compose``
and ``semloc.compose``, because the modules use ``from .liegroup import``),
and every binding is put back when the instrumentation ends.

Two instruments share that mechanism:

* ``LocalizeTimer`` -- the untraced run's only instrumentation: one
  ``perf_counter`` pair around each of ``pipeline.associate_frame``,
  ``estimator.predict`` and ``estimator.correct``.
* ``Tracer`` -- the traced run: a span (name, start, end, parent) at every
  wrapped call, kept in flat in-memory arrays and written out only by
  ``Tracer.save`` at the end, plus counts taken from arguments and results
  at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

from semloc import (association, cli, config, estimator, evaluation, geometry,
                   liegroup, pipeline, semantic_map, simulator)

LIE_FUNCTIONS = ("compose", "inverse", "exp_se3", "log_se3", "adjoint",
                 "se3_left_jacobian_inv")


def _semloc_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name == "semloc" or name.startswith("semloc.")]


def semloc_bindings() -> dict:
    """(module, attribute) -> id of every function bound in a semloc module."""
    return {(mod.__name__, attr): id(value)
            for mod in _semloc_modules() for attr, value in vars(mod).items()
            if callable(value) and not isinstance(value, type)}


class Patches:
    """Context manager that installs wrappers and restores every binding."""

    def __init__(self):
        self._undo = []

    def install(self):
        raise NotImplementedError

    def wrap(self, owner, name: str, make_wrapper):
        """Replace ``owner.name`` wherever that function object is bound."""
        original = getattr(owner, name)
        wrapper = make_wrapper(original)
        for mod in _semloc_modules():
            for attr in [a for a, v in vars(mod).items() if v is original]:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        leftover = [f"{m.__name__}.{a}" for m, a, o in self._undo
                    if getattr(m, a) is not o]
        self._undo.clear()
        if leftover:
            raise RuntimeError(f"instrumentation not restored: {leftover}")
        return False


class LocalizeTimer(Patches):
    """Per-frame time of associate + predict + correct, in ms.

    The pipeline calls predict, then associate_frame, then correct for every
    frame after the GPS bootstrap; a sample is kept only when correct returns.
    """

    def __init__(self):
        super().__init__()
        self.samples_ms: list[float] = []
        self.corrects_ok = 0
        self._frame_s = 0.0

    def install(self):
        self.wrap(estimator, "predict", self._timed(start=True))
        self.wrap(pipeline, "associate_frame", self._timed())
        self.wrap(estimator, "correct", self._timed(finish=True))

    def _timed(self, start=False, finish=False):
        perf = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf()
                result = fn(*args, **kwargs)
                dt = perf() - t0
                if start:
                    self._frame_s = dt
                else:
                    self._frame_s += dt
                if finish:
                    self.corrects_ok += 1
                    self.samples_ms.append(1e3 * self._frame_s)
                return result
            return wrapper
        return make


class Tracer(Patches):
    """Span and count recorder for one or more traced scenario runs."""

    def __init__(self, max_iters: int):
        super().__init__()
        self.max_iters = max_iters
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self.corrects_ok = 0
        self._stack: list[int] = []

    def install(self):
        observers = {
            "simulator.simulate_frame": self._saw_sensor_frame,
            "pipeline.associate_frame": self._saw_bundle,
            "association.match_lane_pixels": self._saw_lane_matching,
            "association.associate_lights": self._saw_light_matching,
            "estimator.correct": self._saw_correct,
        }
        targets = [
            (pipeline, ("run_scenario", "associate_frame")),
            (simulator, ("simulate_frame", "generate_world",
                         "generate_trajectory", "true_offsets")),
            (association, ("match_lane_pixels", "associate_lights", "fit_line")),
            (semantic_map, ("point_segment_distance", "nearby_lanes",
                            "nearby_lights")),
            (geometry, ("project_polyline", "project_point",
                        "point_projection_jacobian")),
            (estimator, ("predict", "correct")),
            (liegroup, LIE_FUNCTIONS),
            (evaluation, ("decompose_error", "offset_error")),
            (cli, ("write_artifacts",)),
            (config, ("from_dict",)),
        ]
        for module, functions in targets:
            layer = module.__name__.rsplit(".", 1)[-1]
            for fn_name in functions:
                label = f"{layer}.{fn_name}"
                self.wrap(module, fn_name,
                          functools.partial(self._span, label, observers.get(label)))

    def _span(self, label: str, observe, fn):
        nid = len(self.names)
        self.names.append(label)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack)
        perf = time.perf_counter
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(signature.bind(*args, **kwargs).arguments, result)
            return result
        return wrapper

    def _saw_sensor_frame(self, args, sensor):
        self.counts["lane_pixels"] += len(sensor.lane_pixels)
        self.counts["light_pixels"] += len(sensor.light_pixels)

    def _saw_bundle(self, args, bundle):
        self.counts["lane_matches"] += len(bundle.lane_matches)
        self.counts["light_matches"] += len(bundle.light_matches)

    def _saw_lane_matching(self, args, result):
        assignments, _ = result
        self.counts["lane_pixels_in"] += len(args["pixels"])
        self.counts["lane_pixels_assigned"] += sum(len(v) for v in assignments.values())

    def _saw_light_matching(self, args, result):
        matches, _ = result
        self.counts["light_detections"] += len(args["detections"])
        self.counts["light_detections_assigned"] += len(matches)

    def _saw_correct(self, args, state):
        self.corrects_ok += 1
        iters = len(args.get("diagnostics") or ())
        bundle = args["bundle"]
        self.counts["gn_iters"] += iters
        self.counts["max_iters_hits"] += iters >= self.max_iters
        self.counts["terms"] += (
            (bundle.gps is not None) + len(bundle.light_matches)
            + len(bundle.lane_matches) + (bundle.wheel is not None)
            + bool(bundle.use_pseudo)
        )

    def spans(self) -> dict:
        """Recorded spans as arrays. ``frame`` numbers the simulated frames of
        all traced runs in order; a span carries the number of the last
        ``simulate_frame`` span started at or before it (-1 before the first),
        so the spans of one frame share it."""
        name_id = np.frombuffer(self.name_id, dtype=np.uint16)
        sim_ids = [i for i, n in enumerate(self.names)
                   if n == "simulator.simulate_frame"]
        frame = np.cumsum(np.isin(name_id, sim_ids)) - 1
        return {
            "names": np.array(self.names),
            "name_id": name_id.copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "frame": frame.astype(np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, **self.spans())

    def layer_metrics(self) -> dict:
        """Per-layer metrics, name -> (value, unit), over all traced runs."""
        sp = self.spans()
        labels = sp["names"]
        label_of = labels[sp["name_id"]]
        dur = sp["end"] - sp["start"]
        n = len(dur)
        child = np.bincount(sp["parent"][sp["parent"] >= 0],
                            weights=dur[sp["parent"] >= 0], minlength=n)
        frames = max(int(np.count_nonzero(label_of == "simulator.simulate_frame")), 1)
        runs = max(int(np.count_nonzero(label_of == "pipeline.run_scenario")), 1)
        corrects = max(self.corrects_ok, 1)
        c = self.counts

        def total_ms(*names):
            return 1e3 * float(dur[np.isin(label_of, names)].sum())

        def self_ms(name):
            mask = label_of == name
            return 1e3 * float((dur[mask] - child[mask]).sum())

        def calls(name):
            return float(np.count_nonzero(label_of == name))

        def ratio(num, den):
            return num / den if den else 0.0

        is_lie = np.char.startswith(label_of.astype(str), "liegroup.")
        parent_lie = np.zeros(n, dtype=bool)
        has_parent = sp["parent"] >= 0
        parent_lie[has_parent] = is_lie[sp["parent"][has_parent]]
        lie_ms = 1e3 * float(dur[is_lie & ~parent_lie].sum())

        localize = total_ms("pipeline.associate_frame", "estimator.predict",
                            "estimator.correct")
        setup = total_ms("simulator.generate_world", "simulator.generate_trajectory",
                         "simulator.true_offsets")
        per_frame = 1.0 / frames
        m = {
            "pipeline.run_scenario.ms_per_frame": (total_ms("pipeline.run_scenario") * per_frame, "ms"),
            "pipeline.self_ms_per_frame": (self_ms("pipeline.run_scenario") * per_frame, "ms"),
            "simulator.simulate_frame.ms_per_frame": (total_ms("simulator.simulate_frame") * per_frame, "ms"),
            "simulator.lane_pixels_per_frame": (c["lane_pixels"] * per_frame, "count"),
            "simulator.light_pixels_per_frame": (c["light_pixels"] * per_frame, "count"),
            "simulator.setup_ms": (setup / runs, "ms"),
            "pipeline.associate_frame.ms_per_frame": (total_ms("pipeline.associate_frame") * per_frame, "ms"),
            "pipeline.associate_frame.self_ms_per_frame": (self_ms("pipeline.associate_frame") * per_frame, "ms"),
            "association.match_lane_pixels.ms_per_frame": (total_ms("association.match_lane_pixels") * per_frame, "ms"),
            "association.lane_pixels_in_per_frame": (c["lane_pixels_in"] * per_frame, "count"),
            "association.lane_pixel_match_ratio": (ratio(c["lane_pixels_assigned"], c["lane_pixels_in"]), "1"),
            "association.associate_lights.ms_per_frame": (total_ms("association.associate_lights") * per_frame, "ms"),
            "association.light_match_ratio": (ratio(c["light_detections_assigned"], c["light_detections"]), "1"),
            "association.fit_line.ms_per_frame": (total_ms("association.fit_line") * per_frame, "ms"),
            "association.lane_matches_per_frame": (c["lane_matches"] * per_frame, "count"),
            "association.light_matches_per_frame": (c["light_matches"] * per_frame, "count"),
            "semantic_map.point_segment_distance.calls_per_frame": (calls("semantic_map.point_segment_distance") * per_frame, "count"),
            "semantic_map.point_segment_distance.ms_per_frame": (total_ms("semantic_map.point_segment_distance") * per_frame, "ms"),
            "semantic_map.nearby_query.ms_per_frame": (total_ms("semantic_map.nearby_lanes", "semantic_map.nearby_lights") * per_frame, "ms"),
            "geometry.project_polyline.ms_per_frame": (total_ms("geometry.project_polyline") * per_frame, "ms"),
            "geometry.project_point.calls_per_frame": (calls("geometry.project_point") * per_frame, "count"),
            "geometry.point_projection_jacobian.calls_per_frame": (calls("geometry.point_projection_jacobian") * per_frame, "count"),
            "geometry.point_projection_jacobian.ms_per_frame": (total_ms("geometry.point_projection_jacobian") * per_frame, "ms"),
            "estimator.predict.ms_per_frame": (total_ms("estimator.predict") * per_frame, "ms"),
            "estimator.correct.ms_per_frame": (total_ms("estimator.correct") * per_frame, "ms"),
            "estimator.correct.self_ms_per_frame": (self_ms("estimator.correct") * per_frame, "ms"),
            "estimator.correct.gn_iters_per_frame": (c["gn_iters"] / corrects, "count"),
            "estimator.correct.max_iters_ratio": (c["max_iters_hits"] / corrects, "1"),
            "estimator.correct.terms_per_frame": (c["terms"] / corrects, "count"),
            "liegroup.ms_per_frame": (lie_ms * per_frame, "ms"),
        }
        for fn_name in LIE_FUNCTIONS:
            m[f"liegroup.{fn_name}.calls_per_frame"] = (calls(f"liegroup.{fn_name}") * per_frame, "count")
        m.update({
            "evaluation.score.ms_per_frame": (total_ms("evaluation.decompose_error", "evaluation.offset_error") * per_frame, "ms"),
            "cli.write_artifacts.ms": (total_ms("cli.write_artifacts") / runs, "ms"),
            "config.from_dict.ms": (total_ms("config.from_dict") / max(calls("config.from_dict"), 1), "ms"),
            "localize.associate_share": (ratio(total_ms("pipeline.associate_frame"), localize), "1"),
            "localize.correct_share": (ratio(total_ms("estimator.correct"), localize), "1"),
        })
        return m
