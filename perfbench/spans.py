"""Per-layer spans for an in-process op, recorded from outside the program.

``traced`` swaps each public function for a wrapper where its caller looks
it up (mostly ``popvol.cli.<name>``), records one span per call and restores
the originals afterwards. A span's self time is its duration minus that of
its direct children, so the self times of one ``cli.main`` call add up to
that call's duration.

Span names are the per-layer metric names without the ``_s`` suffix.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict


def _grid_read(c, args, result):
    c["grid.cells_read"] += result.data.size
    c["grid.bytes_read"] += len(args[0])


def _grid_write(c, args, result):
    c["grid.write_calls"] += 1
    c["grid.bytes_written"] += len(result)


def _pmf(c, args, result):
    from popvol.dtm import DtmFilterParams, window_sizes

    dsm = args[0]
    params = args[1] if len(args) > 1 and args[1] is not None else DtmFilterParams()
    _, ground = result
    valid = dsm.valid_mask
    c["dtm.windows"] += len(window_sizes(params, dsm.georef.cellsize))
    c["dtm.cells"] += dsm.data.size
    c["dtm.non_ground_cells"] += int((~ground & valid).sum())
    c["dtm.valid_cells"] += int(valid.sum())


def _rasterize(c, args, result):
    c["footprints.rasterize_calls"] += 1
    c["footprints.cells_rasterized"] += len(result)


def _count(key, size=None):
    def counter(c, args, result):
        c[key] += 1 if size is None else size(args, result)
    return counter


# (module, attribute, span name, counter)
WRAPPED = (
    ("popvol.cli", "cmd_run", "cli.run_self", None),
    ("popvol.cli", "cmd_synth", "cli.synth_self", None),
    ("popvol.cli", "estimate_buildings", "cli.estimate_buildings_self", None),
    ("popvol.cli", "footprints_to_geojson", "cli.to_geojson", None),
    ("popvol.cli", "_read_text", "cli.file_io", None),
    ("popvol.cli", "_write_text", "cli.file_io", None),
    ("popvol.cli", "read_ascii_grid", "grid.read", _grid_read),
    ("popvol.cli", "write_ascii_grid", "grid.write", _grid_write),
    ("popvol.cli", "load_scene", "synth.load_scene", _count("synth.prisms", lambda a, r: len(r.prisms))),
    ("popvol.cli", "synthesize_dsm", "synth.synthesize_dsm_self", None),
    ("popvol.synth", "lcg_noise", "synth.lcg_noise", _count("synth.noise_cells", lambda a, r: a[1])),
    ("popvol.synth", "rasterize_polygon", "footprints.rasterize", _rasterize),
    ("popvol.footprints", "rasterize_polygon", "footprints.rasterize", _rasterize),
    ("popvol.cli", "parse_footprints", "footprints.parse", _count("footprints.parsed", lambda a, r: len(r))),
    ("popvol.cli", "zonal_height", "footprints.zonal_self", _count("footprints.zonal_ok")),
    ("popvol.cli", "progressive_morphological_filter", "dtm.pmf", _pmf),
    ("popvol.cli", "estimate_building", "estimate.building", None),
    ("popvol.cli", "aggregate", "estimate.aggregate",
     _count("estimate.excluded", lambda a, r: sum(e.excluded for e in a[0]))),
    ("popvol.cli", "read_ground_truth", "validate.report", None),
    ("popvol.cli", "validate_report", "validate.report", None),
    ("popvol.cli", "render_report_csv", "validate.report", None),
    ("popvol.cli", "extrude", "mesh.extrude", _count("mesh.faces", lambda a, r: len(r.faces))),
    ("popvol.cli", "write_obj", "mesh.write_obj", None),
    ("popvol.cli", "parse_osm", "osm.parse", _count("osm.elements", lambda a, r: len(r))),
    ("popvol.cli", "load_rules", "osm.parse", None),
    ("popvol.cli", "filter_amenities", "osm.filter", _count("osm.matched", lambda a, r: len(r))),
    ("popvol.cli", "count_within_radius", "osm.count", None),
)
SPAN_NAMES = ("cli.main_self",) + tuple(dict.fromkeys(w[2] for w in WRAPPED))
# units of the metrics Tracer.metrics() derives from counts
METRIC_UNITS = {
    "grid.write_calls": "count",
    "grid.cells_read": "count",
    "grid.bytes_read": "bytes",
    "grid.bytes_written": "bytes",
    "synth.prisms": "count",
    "synth.noise_cells": "count",
    "dtm.windows": "count",
    "dtm.cells": "count",
    "dtm.non_ground_frac": "ratio",
    "footprints.rasterize_calls": "count",
    "footprints.cells_rasterized": "count",
    "footprints.zonal_ok_ratio": "ratio",
    "estimate.excluded": "count",
    "mesh.faces": "count",
    "osm.elements": "count",
    "osm.match_ratio": "ratio",
}


class Tracer:
    """Spans and counts of one op, kept in memory."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[dict] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, s in enumerate(self.spans):
            totals[s["name"]] += s["end"] - s["start"] - child_time[i]
        return totals

    def metrics(self) -> dict[str, float]:
        """Self time per span name (as ``<name>_s``) plus the counts and ratios."""
        c = self.counts
        out = {f"{name}_s": v for name, v in self.self_times().items()}
        out.update({k: c[k] for k in METRIC_UNITS if not k.endswith(("_frac", "_ratio"))})
        out["dtm.non_ground_frac"] = c["dtm.non_ground_cells"] / max(1, c["dtm.valid_cells"])
        out["footprints.zonal_ok_ratio"] = c["footprints.zonal_ok"] / max(1, c["footprints.parsed"])
        out["osm.match_ratio"] = c["osm.matched"] / max(1, c["osm.elements"])
        return out


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, counter))
        yield tracer.wrap("cli.main_self", importlib.import_module("popvol.cli").main)
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
