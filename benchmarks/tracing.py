"""Spans around calls into phasegain's modules, recorded from outside src/.

`Tracer.install()` replaces the public functions and methods in `LAYERS`
with wrappers that record a span (name, start, end, parent) in memory.
Self time is a span's duration minus the time its direct child spans
cover.  Counters are attached to spans by the hooks in `COUNTERS`, at the
boundary where the work happens.
"""

from __future__ import annotations

import functools
import json
import time

import phasegain.bounds
import phasegain.cli
import phasegain.fading
import phasegain.geometry
import phasegain.sets
import phasegain.solver

# (span name, owner, attribute): every layer boundary the benchmark times.
LAYERS = (
    ("cli.main", phasegain.cli, "main"),
    ("sets.to_polygon", phasegain.sets.FeasibleSet, "to_polygon"),
    ("geometry.convex_hull", phasegain.geometry, "convex_hull"),
    ("geometry.normal_fan", phasegain.geometry, "normal_fan"),
    ("geometry.perimeter", phasegain.geometry, "perimeter"),
    ("geometry.min_support", phasegain.geometry, "min_support"),
    ("geometry.minkowski_sum_indexed", phasegain.geometry, "minkowski_sum_indexed"),
    ("bounds.build_report", phasegain.bounds, "build_report"),
    ("solver.PhasorChannel", phasegain.solver.PhasorChannel, "__init__"),
    ("solver.PhasorChannel.load", phasegain.solver.PhasorChannel, "load"),
    ("solver.solve_angle_sweep", phasegain.solver, "solve_angle_sweep"),
    ("solver.greedy_quantize", phasegain.solver, "greedy_quantize"),
    ("solver.solve_minkowski", phasegain.solver, "solve_minkowski"),
    ("solver.brute_force", phasegain.solver, "brute_force"),
    ("fading.sample_channel", phasegain.fading, "sample_channel"),
    ("fading.convergence_experiment", phasegain.fading, "convergence_experiment"),
)


def _active_antennas(ch) -> int:
    return sum(1 for h in ch.coefficients if h != 0)


# name -> hook(span, parent, args, result); hooks add to span["n"] / parent["n"].
def _hull_counts(span, parent, args, result):
    if parent is not None and parent["name"] == "sets.to_polygon":
        parent["n"]["points_in"] = parent["n"].get("points_in", 0) + len(args[0])


def _polygon_counts(span, parent, args, result):
    span["n"]["vertices_kept"] = len(result)


def _fan_counts(span, parent, args, result):
    if parent is not None and parent["name"] == "solver.solve_angle_sweep":
        parent["n"]["fan_boundaries"] = len(result[0])


def _sweep_counts(span, parent, args, result):
    span["n"]["events"] = _active_antennas(args[0]) * span["n"].pop("fan_boundaries", 0)


def _minkowski_counts(span, parent, args, result):
    span["n"]["vertices_out"] = len(result[0])


def _brute_counts(span, parent, args, result):
    span["n"]["combinations"] = len(args[1].points()) ** len(args[0])


COUNTERS = {
    "geometry.convex_hull": _hull_counts,
    "sets.to_polygon": _polygon_counts,
    "geometry.normal_fan": _fan_counts,
    "solver.solve_angle_sweep": _sweep_counts,
    "geometry.minkowski_sum_indexed": _minkowski_counts,
    "solver.brute_force": _brute_counts,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        hook = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": parent["id"] if parent else None, "id": len(self.spans),
                    "child_s": 0.0, "n": {}}
            span["call"] = parent["call"] if parent else span["id"]  # shared by one call's spans
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
                if parent is not None:
                    parent["child_s"] += span["end"] - span["start"]
            if hook is not None:
                hook(span, parent, args, result)
            return result

        return traced

    def install(self):
        for name, owner, attr in LAYERS:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attr, wrapped)

    def summary(self, rounds: int) -> dict:
        """Per-round calls, busy_s, self_s and counters for every layer."""
        out = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = 0.0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for s in self.spans:
            dur = s["end"] - s["start"]
            out[f"{s['name']}.calls"] += 1
            out[f"{s['name']}.busy_s"] += dur
            out[f"{s['name']}.self_s"] += dur - s["child_s"]
            for key, value in s["n"].items():
                k = f"{s['name']}.{key}"
                out[k] = out.get(k, 0) + value
        for key in ("points_in", "vertices_kept"):
            out.setdefault(f"sets.to_polygon.{key}", 0)
        out["sets.to_polygon.keep_ratio"] = (
            out["sets.to_polygon.vertices_kept"] / out["sets.to_polygon.points_in"]
            if out["sets.to_polygon.points_in"] else 1.0)
        for key in ("solver.solve_angle_sweep.events",
                    "geometry.minkowski_sum_indexed.vertices_out",
                    "solver.brute_force.combinations"):
            out.setdefault(key, 0)
        return {k: (v if k.endswith("keep_ratio") else v / rounds) for k, v in out.items()}

    def write(self, path):
        """Write the spans as JSON lines: ids, name, start, end, parent, counters."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({k: s[k] for k in ("id", "call", "name", "start", "end",
                                                      "parent", "n")}) + "\n")
