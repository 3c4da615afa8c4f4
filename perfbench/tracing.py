"""Span tracing for the benchmark's traced run (``--trace 1``).

The tracer wraps public functions and methods of ``ssmi`` from outside the
package: it rebinds each target at its module or class attribute, and at every
other ``ssmi`` module attribute bound to the same function object (names
imported with ``from .grid import save_grid``, say), so calls through either
name are seen. Each call records one span: its id (the index in
``Tracer.spans``), the id of the enclosing span, a name, and start and end
in nanoseconds. Spans stay in memory until the run ends and are then written
out as one JSON file; self time is derived from them (a span's duration
minus the durations of its direct children). Counters (cells per ray, bytes
written, ...) are taken at the same boundaries by small hooks that run after
the span has closed.

A target that a later refactor renamed or removed is recorded as absent and
its metrics read zero; the traced run does not fail because of it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _path_arg(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[1]


def _cast_ray(tr, args, kwargs, result, exc):
    if result is not None:
        tr.add("grid.cast_ray.cells", len(result.cells))


def _save_grid(tr, args, kwargs, result, exc):
    if exc is None:
        tr.add("grid.save_grid.bytes", os.path.getsize(_path_arg(args, kwargs)))


def _save_octree(tr, args, kwargs, result, exc):
    if exc is None:
        tr.add("octree.save_octree.bytes", os.path.getsize(_path_arg(args, kwargs)))
        tr.add("octree.leaves", args[0].num_leaves())


def _select(tr, args, kwargs, result, exc):
    if result is not None:
        tr.add("mi.beams_cast", len(args[0]))
        tr.add("mi.beams_kept", len(result))


def _dense(tr, args, kwargs, result, exc):
    if result is not None:
        tr.add("mi.cells", len(args[0]))


def _srle(tr, args, kwargs, result, exc):
    if result is not None:
        tr.add("mi.runs", args[0].num_runs)


def _plan_path(tr, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "Unreachable":
        tr.add("planner.plan_path.unreachable", 1)


_INHERITED = object()  # marks a method the class got from a base class

# (span name, module, attribute path, post-call hook)
TARGETS = [
    ("grid.cast_ray", "ssmi.grid", "GridMap.cast_ray", _cast_ray),
    ("grid.integrate", "ssmi.grid", "GridMap.integrate", None),
    ("grid.map_entropy", "ssmi.grid", "GridMap.map_entropy", None),
    ("grid.save_grid", "ssmi.grid", "save_grid", _save_grid),
    ("sim.sense", "ssmi.sim", "sense", None),
    ("octree.insert_scan", "ssmi.octree", "SemanticOctree.insert_scan", None),
    ("octree.prune", "ssmi.octree", "SemanticOctree.prune", None),
    ("octree.cast_elements", "ssmi.octree", "SemanticOctree.cast_elements", None),
    ("octree.encode_trace", "ssmi.octree", "SemanticOctree.encode_trace", None),
    ("octree.map_entropy", "ssmi.octree", "SemanticOctree.map_entropy", None),
    ("octree.observed_fraction", "ssmi.octree", "SemanticOctree.observed_fraction", None),
    ("octree.save_octree", "ssmi.octree", "save_octree", _save_octree),
    ("mi.trajectory_mi", "ssmi.mi", "trajectory_mi", None),
    ("mi.select_nonoverlapping", "ssmi.mi", "select_nonoverlapping", _select),
    ("mi.beam_mi_dense", "ssmi.mi", "beam_mi_dense", _dense),
    ("mi.beam_mi_srle", "ssmi.mi", "beam_mi_srle", _srle),
    ("planner.view", "ssmi.planner", "view_from_grid", None),
    ("planner.view", "ssmi.planner", "view_from_octree", None),
    ("planner.find_frontiers", "ssmi.planner", "find_frontiers", None),
    ("planner.plan_path", "ssmi.planner", "plan_path", _plan_path),
    ("planner.evaluate_candidates", "ssmi.planner", "evaluate_candidates", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one [parent id, name id, start ns, end ns] per span; the index is the id
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.sums: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def add(self, counter: str, amount: float) -> None:
        self.sums[counter] += amount

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> list[int]:
        parent = self._stack[-1] if self._stack else -1
        rec = [parent, nid, time.perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list[int]) -> None:
        rec[3] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, post):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            rec = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(rec)
                if post is not None:
                    post(self, args, kwargs, None, exc)
                raise
            self._close(rec)
            if post is not None:
                post(self, args, kwargs, result, None)
            return result

        return functools.wraps(fn)(traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS) -> None:
        for name, module_name, attr_path, post in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            wrapper = self._wrap(name, original, post)
            self._patch(owner, attr, wrapper)
            if parents:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("ssmi"):
                    continue
                for other, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, other, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    # -- derived figures ---------------------------------------------------

    def durations_ns(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        return [e - s for _, n, s, e in self.spans if n == nid]

    def totals(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """(calls, inclusive ns, self ns) per span name."""
        child_ns = [0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for sid, (_, nid, start, end) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            incl[name] += end - start
            self_ns[name] += end - start - child_ns[sid]
        return calls, incl, self_ns

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["parent", "name", "start_ns", "end_ns"],
                    "names": self.names,
                    "spans": self.spans,
                    "absent": self.absent,
                    "counters": dict(self.sums),
                },
                fh,
                separators=(",", ":"),
            )


# (span name, statistics reported for it); calls and self_ms are per episode
SPAN_STATS = [
    ("grid.cast_ray", ("calls", "self_ms")),
    ("grid.integrate", ("calls", "self_ms")),
    ("grid.map_entropy", ("self_ms",)),
    ("grid.save_grid", ("self_ms",)),
    ("sim.sense", ("calls", "self_ms")),
    ("octree.insert_scan", ("calls", "self_ms")),
    ("octree.prune", ("calls", "self_ms")),
    ("octree.cast_elements", ("calls", "self_ms")),
    ("octree.encode_trace", ("calls", "self_ms")),
    ("octree.map_entropy", ("self_ms",)),
    ("octree.observed_fraction", ("self_ms",)),
    ("octree.save_octree", ("self_ms",)),
    ("mi.trajectory_mi", ("calls", "self_ms")),
    ("mi.select_nonoverlapping", ("self_ms",)),
    ("mi.beam_mi_dense", ("calls", "self_ms")),
    ("mi.beam_mi_srle", ("calls", "self_ms")),
    ("planner.view", ("self_ms",)),
    ("planner.find_frontiers", ("calls", "self_ms")),
    ("planner.plan_path", ("calls", "self_ms")),
    ("planner.evaluate_candidates", ("calls", "self_ms")),
    ("episode", ("self_ms",)),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p90(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


def layer_metrics(tracer: Tracer, episodes: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced run, as name -> (value, unit).

    Counts, times and bytes are per episode (per map build for scan3d), so
    runs that fit a different number of episodes compare directly.
    """
    calls, _, self_ns = tracer.totals()
    sums = tracer.sums
    out: dict[str, tuple[float, str]] = {}
    for name, stats in SPAN_STATS:
        if "calls" in stats:
            out[f"{name}.calls"] = (_ratio(calls[name], episodes), "count")
        out[f"{name}.self_ms"] = (_ratio(self_ns[name], episodes) / 1e6, "ms")
    out["grid.cast_ray.cells_per_call"] = (
        _ratio(sums["grid.cast_ray.cells"], calls["grid.cast_ray"]), "cells")
    out["grid.save_grid.bytes"] = (_ratio(sums["grid.save_grid.bytes"], episodes), "B")
    out["octree.save_octree.bytes"] = (_ratio(sums["octree.save_octree.bytes"], episodes), "B")
    out["octree.leaves"] = (_ratio(sums["octree.leaves"], episodes), "count")
    out["mi.beams_cast"] = (_ratio(sums["mi.beams_cast"], episodes), "count")
    out["mi.beams_kept"] = (_ratio(sums["mi.beams_kept"], episodes), "count")
    out["mi.kept_ratio"] = (_ratio(sums["mi.beams_kept"], sums["mi.beams_cast"]), "frac")
    out["mi.cells_per_ray"] = (_ratio(sums["mi.cells"], calls["mi.beam_mi_dense"]), "cells")
    out["mi.runs_per_ray"] = (_ratio(sums["mi.runs"], calls["mi.beam_mi_srle"]), "runs")
    out["planner.plan_path.unreachable"] = (
        _ratio(sums["planner.plan_path.unreachable"], episodes), "count")
    out["planner.evaluate_candidates.p90_ms"] = (
        _p90(tracer.durations_ns("planner.evaluate_candidates")) / 1e6, "ms")
    return out


# ROADMAP "Measured baseline" per-call rows: (span, unit scale, baseline, unit)
BASELINE_ROWS = [
    ("grid.cast_ray", 1e3, 382.0, "us"),
    ("grid.integrate", 1e3, 542.0, "us"),
    ("mi.beam_mi_dense", 1e3, 294.0, "us"),
    ("mi.beam_mi_srle", 1e3, 261.0, "us"),
    ("octree.insert_scan", 1e6, 261.0, "ms"),
]


def baseline_table(tracer: Tracer) -> str:
    """Inclusive per-call times of this run beside the ROADMAP baseline."""
    calls, incl, _ = tracer.totals()
    lines = [
        "per call (traced, inclusive) vs ROADMAP 'Measured baseline' "
        "(baseline: one 3-D beam of ~22 cells, a one-beam octree scan; "
        "the inputs here differ)",
    ]
    for name, scale, base, unit in BASELINE_ROWS:
        if calls[name]:
            here = f"{incl[name] / calls[name] / scale:10.1f} {unit}"
        else:
            here = f"{'not called':>13}"
        lines.append(f"  {name:<20} {here}   baseline {base:g} {unit}   ({calls[name]} calls)")
    return "\n".join(lines)
