"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The package modules bind their callees with ``from .x import y``, so a call
is intercepted by replacing the name in the module that looks it up: for
example ``ringtrap.minimize.dressed_potential`` for the pattern search and
``ringtrap.dressed.dressed_potential`` for the finite-difference stencils.
Every wrapper calls the original function, never another wrapper, so each
call is recorded once. Spans and their counters are kept in memory and
written out when the run ends; self times are derived from them.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: kernel calls of at least this many points measure ns per point
BATCH_POINTS = 1024
#: kernel calls of fewer points measure the per-call overhead
SMALL_POINTS = 16
#: float64 bytes computed per kernel point: a position (3) and a value (1)
BYTES_PER_POINT = 32


class Span:
    __slots__ = ("id", "parent", "invocation", "name", "start", "end", "counters")

    def __init__(self, id, parent, invocation, name, start):
        self.id = id
        self.parent = parent
        self.invocation = invocation
        self.name = name
        self.start = start
        self.end = start
        self.counters = {}

    @property
    def duration(self) -> int:
        return self.end - self.start


def _points(args, kwargs, result):
    return {"points": np.asarray(args[0]).size // 3}


def _nodes(args, kwargs, result):
    return {"nodes": result.values.size}


def _minimization(args, kwargs, result):
    return {"f_evals": result.f_evals, "iterations": result.iterations}


def _diameters(args, kwargs, result):
    return {"used": len(result.per_diameter), "excluded": len(result.excluded)}


def _fit(args, kwargs, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _file_bytes(*positions):
    def count(args, kwargs, result):
        return {"bytes": sum(Path(args[i]).stat().st_size for i in positions)}

    return count


#: (module that looks the name up, name, span name, counters of one call)
SITES = (
    ("ringtrap.cli", "load_config", "config.load_config", None),
    ("ringtrap.cli", "sample_grid", "grids.sample_grid", _nodes),
    ("ringtrap.imaging", "sample_grid", "grids.sample_grid", _nodes),
    ("ringtrap.grids", "dressed_potential", "dressed.dressed_potential", _points),
    ("ringtrap.analysis", "dressed_potential", "dressed.dressed_potential", _points),
    ("ringtrap.minimize", "dressed_potential", "dressed.dressed_potential", _points),
    ("ringtrap.dressed", "dressed_potential", "dressed.dressed_potential", _points),
    ("ringtrap.cli", "analyze_trap", "analysis.analyze_trap", None),
    ("ringtrap.cli", "criteria_report", "analysis.criteria_report", None),
    ("ringtrap.cli", "frequency_sweep", "analysis.frequency_sweep", None),
    ("ringtrap.analysis", "azimuthal_profile", "analysis.azimuthal_profile", None),
    ("ringtrap.analysis", "classify_geometry", "analysis.classify_geometry", None),
    ("ringtrap.analysis", "trap_frequencies", "analysis.trap_frequencies", None),
    ("ringtrap.analysis", "find_minimum", "minimize.find_minimum", _minimization),
    ("ringtrap.minimize", "potential_gradient", "minimize.fd", None),
    ("ringtrap.minimize", "potential_hessian", "minimize.fd", None),
    ("ringtrap.cli", "thermal_density", "imaging.thermal_density", None),
    ("ringtrap.cli", "column_density", "imaging.column_density", None),
    ("ringtrap.cli", "add_noise", "imaging.add_noise", None),
    ("ringtrap.cli", "measure_ring_radius", "imaging.measure_ring_radius", _diameters),
    ("ringtrap.imaging", "fit_two_gaussians", "gaussfit.fit_two_gaussians", _fit),
    ("ringtrap.cli", "export_image_csv", "image_io.export_image_csv", _file_bytes(1)),
    ("ringtrap.cli", "export_image_binary", "image_io.export_image_binary",
     _file_bytes(1, 2)),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Records one span per traced call; spans of one CLI call share an
    invocation id, and each span names the span that was open when it began."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._invocation = 0
        self.missing = []  # sites whose module no longer has the name

    def _begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, self._invocation, name, time.perf_counter_ns())
        self.spans.append(span)
        self._open.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._open.pop()

    def _wrap(self, original, name, count):
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(span)
            if count is not None:
                try:
                    span.counters.update(count(args, kwargs, result))
                except (AttributeError, TypeError, ValueError, OSError):
                    # a refactored signature or result loses this counter,
                    # not the call
                    span.counters["uncounted"] = 1
            return result

        return traced

    def invoke(self, fn, *args):
        """Call ``fn`` as the root span of a new invocation; return
        ``(result, span)``."""
        self._invocation += 1
        span = self._begin(ROOT_SPAN)
        try:
            result = fn(*args)
        finally:
            self._end(span)
        return result, span

    @contextmanager
    def installed(self):
        """Replace every site in ``SITES`` with a traced wrapper, and restore
        the originals on exit. A site whose module or name is gone is skipped
        and listed in ``missing``, so that a refactor of the package leaves
        the rest of the trace working."""
        patched = []
        try:
            for module_name, attr, name, count in SITES:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    site = f"{module_name}.{attr}"
                    if site not in self.missing:
                        self.missing.append(site)
                    continue
                setattr(module, attr, self._wrap(original, name, count))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def dump(self, path: Path, meta: dict) -> None:
        fields = ("id", "parent", "invocation", "name", "start_ns", "end_ns", "counters")
        rows = [
            [s.id, s.parent, s.invocation, s.name, s.start, s.end, s.counters]
            for s in self.spans
        ]
        path.write_text(json.dumps({"meta": meta, "fields": fields, "spans": rows}))


#: per-layer metric -> unit; every traced pass reports all of them, and a
#: layer that does not run on a workload reports 0
LAYER_UNITS = {
    "dressed.points": "count",
    "dressed.calls": "count",
    "dressed.bytes_computed": "B",
    "dressed.ns_per_point": "ns",
    "dressed.us_per_call": "us",
    "grids.sample_grid_s": "s",
    "grids.self_s": "s",
    "grids.nodes": "count",
    "analysis.profile_s": "s",
    "analysis.profile_self_s": "s",
    "analysis.profile_calls": "count",
    "analysis.analyze_trap_self_s": "s",
    "analysis.criteria_s": "s",
    "analysis.classify_s": "s",
    "analysis.trap_frequencies_s": "s",
    "analysis.sweep_self_s": "s",
    "minimize.find_minimum_s": "s",
    "minimize.f_evals": "count",
    "minimize.iterations": "count",
    "minimize.fd_calls": "count",
    "minimize.fd_s": "s",
    "imaging.thermal_density_self_s": "s",
    "imaging.column_density_s": "s",
    "imaging.noise_s": "s",
    "imaging.measure_s": "s",
    "imaging.diameters_used_ratio": "ratio",
    "gaussfit.fits": "count",
    "gaussfit.fit_s": "s",
    "gaussfit.iterations": "count",
    "gaussfit.converged_ratio": "ratio",
    "image_io.csv_s": "s",
    "image_io.bin_s": "s",
    "image_io.bytes": "B",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "config.load_s": "s",
}


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass from its spans (see ``LAYER_UNITS``)."""
    covered = defaultdict(int)  # span id -> time its child spans cover
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            covered[s.parent] += s.duration

    def total_s(name):
        return sum(s.duration for s in by_name[name]) / 1e9

    def self_s(name):
        return sum(s.duration - covered[s.id] for s in by_name[name]) / 1e9

    def count(name, key):
        return sum(s.counters.get(key, 0) for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    kernel = by_name["dressed.dressed_potential"]
    counted = [s for s in kernel if "points" in s.counters]
    batched = [s for s in counted if s.counters["points"] >= BATCH_POINTS]
    single = [s for s in counted if s.counters["points"] < SMALL_POINTS]
    points = count("dressed.dressed_potential", "points")
    fits = len(by_name["gaussfit.fit_two_gaussians"])
    used = count("imaging.measure_ring_radius", "used")
    return {
        "dressed.points": points,
        "dressed.calls": len(kernel),
        "dressed.bytes_computed": points * BYTES_PER_POINT,
        "dressed.ns_per_point": ratio(
            sum(s.duration for s in batched), sum(s.counters["points"] for s in batched)
        ),
        "dressed.us_per_call": ratio(sum(s.duration for s in single) / 1e3, len(single)),
        "grids.sample_grid_s": total_s("grids.sample_grid"),
        "grids.self_s": self_s("grids.sample_grid"),
        "grids.nodes": count("grids.sample_grid", "nodes"),
        "analysis.profile_s": total_s("analysis.azimuthal_profile"),
        "analysis.profile_self_s": self_s("analysis.azimuthal_profile"),
        "analysis.profile_calls": len(by_name["analysis.azimuthal_profile"]),
        "analysis.analyze_trap_self_s": self_s("analysis.analyze_trap"),
        "analysis.criteria_s": total_s("analysis.criteria_report"),
        "analysis.classify_s": total_s("analysis.classify_geometry"),
        "analysis.trap_frequencies_s": total_s("analysis.trap_frequencies"),
        "analysis.sweep_self_s": self_s("analysis.frequency_sweep"),
        "minimize.find_minimum_s": total_s("minimize.find_minimum"),
        "minimize.f_evals": count("minimize.find_minimum", "f_evals"),
        "minimize.iterations": count("minimize.find_minimum", "iterations"),
        "minimize.fd_calls": len(by_name["minimize.fd"]),
        "minimize.fd_s": total_s("minimize.fd"),
        "imaging.thermal_density_self_s": self_s("imaging.thermal_density"),
        "imaging.column_density_s": total_s("imaging.column_density"),
        "imaging.noise_s": total_s("imaging.add_noise"),
        "imaging.measure_s": total_s("imaging.measure_ring_radius"),
        "imaging.diameters_used_ratio": ratio(
            used, used + count("imaging.measure_ring_radius", "excluded")
        ),
        "gaussfit.fits": fits,
        "gaussfit.fit_s": total_s("gaussfit.fit_two_gaussians"),
        "gaussfit.iterations": count("gaussfit.fit_two_gaussians", "iterations"),
        "gaussfit.converged_ratio": ratio(
            count("gaussfit.fit_two_gaussians", "converged"), fits
        ),
        "image_io.csv_s": total_s("image_io.export_image_csv"),
        "image_io.bin_s": total_s("image_io.export_image_binary"),
        "image_io.bytes": count("image_io.export_image_csv", "bytes")
        + count("image_io.export_image_binary", "bytes"),
        "cli.self_s": self_s(ROOT_SPAN),
        "cli.bytes_written": count(ROOT_SPAN, "bytes"),
        "config.load_s": total_s("config.load_config"),
    }
