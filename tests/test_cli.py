import argparse
import contextlib
import io
import itertools
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import popvol
import popvol.cli
import popvol.dtm
from popvol import read_ascii_grid, write_ascii_grid
from popvol.cli import RUN_OUTPUTS, footprints_to_geojson, main, read_estimates_csv
from popvol.footprints import Footprint
from popvol.grid import Grid, GridGeoref, format_value

from conftest import (
    ExitWhenPickled,
    assert_no_children,
    in_child,
    make_grid,
    rectangle_ring,
    split_into,
)

SCENE = {
    "georef": {"ncols": 160, "nrows": 140, "xll": 0.0, "yll": 0.0, "cellsize": 1.0},
    "terrain": {"origin_elev": 50.0, "grad_x": 0.01, "grad_y": 0.0},
    "prisms": [
        {"id": "B1", "type_label": "TypeA", "ring": [[15, 15], [45, 15], [45, 45], [15, 45]],
         "height_m": 19.8, "unit_area_m2": 150.0, "units_per_floor": 4},
        {"id": "B2", "type_label": "TypeA", "ring": [[60, 15], [85, 15], [85, 35], [60, 35]],
         "height_m": 10.6, "unit_area_m2": 150.0, "units_per_floor": 4},
        {"id": "B3", "type_label": "TypeA", "ring": [[100, 15], [130, 15], [130, 40], [100, 40]],
         "height_m": 7.3, "unit_area_m2": 150.0, "units_per_floor": 4},
        {"id": "B4", "type_label": "TypeB", "ring": [[20, 70], [45, 70], [45, 100], [20, 100]],
         "height_m": 13.9, "unit_area_m2": 52.0, "units_per_floor": 4},
        {"id": "B5", "type_label": "TypeB", "ring": [[70, 70], [100, 70], [100, 95], [70, 95]],
         "height_m": 4.5, "unit_area_m2": 52.0, "units_per_floor": 4},
    ],
    "noise_amplitude_m": 0.1,
    "seed": 2024,
}

# ceil(h / 3) * 4 per building
EXPECTED_UNITS = {"B1": 28, "B2": 16, "B3": 12, "B4": 20, "B5": 8}


def write_scene(tmp_path, scene=None):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene or SCENE))
    return path


def test_synth_writes_outputs(tmp_path):
    scene = write_scene(tmp_path)
    rc = main([
        "synth", "--scene", str(scene),
        "--out-dsm", str(tmp_path / "dsm.asc"),
        "--out-truth-dtm", str(tmp_path / "truth.asc"),
        "--out-heights", str(tmp_path / "true_heights.csv"),
        "--out-footprints", str(tmp_path / "fp.geojson"),
    ])
    assert rc == 0
    dsm = read_ascii_grid((tmp_path / "dsm.asc").read_bytes())
    assert dsm.georef.ncols == 160
    heights = (tmp_path / "true_heights.csv").read_text().splitlines()
    assert heights[0] == "id,type_label,height_m"
    assert len(heights) == 6
    fps = json.loads((tmp_path / "fp.geojson").read_text())
    assert len(fps["features"]) == 5


def test_dtm_flat_fixture_identity(tmp_path):
    """A flat DSM is its own DTM and all ground, nodata where the DSM is."""
    data = np.full((30, 30), 12.5)
    data[3, 4] = data[20:22, 0] = np.nan
    flat = make_grid(data)
    (tmp_path / "flat.asc").write_text(write_ascii_grid(flat))
    rc = main([
        "dtm", "--dsm", str(tmp_path / "flat.asc"),
        "--out-dtm", str(tmp_path / "dtm.asc"),
        "--out-mask", str(tmp_path / "mask.asc"),
    ])
    assert rc == 0
    assert read_ascii_grid((tmp_path / "dtm.asc").read_bytes()) == flat
    mask = read_ascii_grid((tmp_path / "mask.asc").read_bytes())
    assert np.array_equal(mask.data, np.where(np.isnan(data), np.nan, 1.0), equal_nan=True)


def test_dtm_prism_fixture_flags_nonground(tmp_path):
    scene = write_scene(tmp_path)
    main(["synth", "--scene", str(scene), "--out-dsm", str(tmp_path / "dsm.asc")])
    rc = main([
        "dtm", "--dsm", str(tmp_path / "dsm.asc"),
        "--out-dtm", str(tmp_path / "dtm.asc"),
        "--out-mask", str(tmp_path / "mask.asc"),
    ])
    assert rc == 0
    mask = read_ascii_grid((tmp_path / "mask.asc").read_bytes())
    # the B1 prism interior must be non-ground
    assert (mask.data[110:120, 20:40] == 0.0).all()


@pytest.mark.parametrize(
    "config", [{"max_window_m": 1e7}, {"initial_window": 1000001, "max_window_m": 1e7}]
)
def test_dtm_window_wider_than_the_grid(tmp_path, capsys, config):
    """A window is clipped to the grid, so its size costs no memory."""
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main([
        "dtm", "--dsm", str(DEMO / "out" / "dsm.asc"), "--config", str(tmp_path / "config.json"),
        "--out-dtm", str(tmp_path / "dtm.asc"),
    ]) == 0
    assert capsys.readouterr().err == ""
    dtm = read_ascii_grid((tmp_path / "dtm.asc").read_bytes())
    assert dtm.georef == read_ascii_grid((DEMO / "out" / "dsm.asc").read_bytes()).georef


def test_windows_stop_once_one_covers_the_grid(tmp_path, monkeypatch):
    """On the 150x180 demo DSM the ninth window, 513 cells, is the first of
    2 * 180 - 1 or more: a config whose windows go on to 8e307 m runs the
    same nine openings (one dilation each) and writes the same bytes as one
    that stops there."""
    calls = []
    real_running = popvol.dtm._running

    def running(data, window, pick):
        if pick is np.maximum:
            calls.append(window)
        return real_running(data, window, pick)

    monkeypatch.setattr(popvol.dtm, "_running", running)
    written = []
    for max_window_m in (513.0, 8e307):
        config, out = tmp_path / "config.json", tmp_path / str(max_window_m)
        config.write_text(json.dumps({"max_window_m": max_window_m}))
        calls.clear()
        assert main([
            "dtm", "--dsm", str(DEMO / "out" / "dsm.asc"), "--config", str(config),
            "--out-dtm", str(out / "dtm.asc"), "--out-mask", str(out / "mask.asc"),
        ]) == 0
        assert calls == [3, 5, 9, 17, 33, 65, 129, 257, 513]
        written.append([(out / name).read_bytes() for name in ("dtm.asc", "mask.asc")])
    assert written[0] == written[1]


def test_missing_input_path_fails_with_message(tmp_path, capsys):
    rc = main([
        "dtm", "--dsm", str(tmp_path / "nope.asc"),
        "--out-dtm", str(tmp_path / "dtm.asc"),
    ])
    assert rc != 0
    assert "nope.asc" in capsys.readouterr().err


def _prepare_rasters(tmp_path):
    scene = write_scene(tmp_path)
    main([
        "synth", "--scene", str(scene),
        "--out-dsm", str(tmp_path / "dsm.asc"),
        "--out-footprints", str(tmp_path / "fp.geojson"),
    ])
    main([
        "dtm", "--dsm", str(tmp_path / "dsm.asc"),
        "--out-dtm", str(tmp_path / "dtm.asc"),
    ])


def test_estimate_pipeline(tmp_path):
    _prepare_rasters(tmp_path)
    rc = main([
        "estimate", "--dsm", str(tmp_path / "dsm.asc"), "--dtm", str(tmp_path / "dtm.asc"),
        "--footprints", str(tmp_path / "fp.geojson"),
        "--out-heights", str(tmp_path / "heights.csv"),
        "--out-estimates", str(tmp_path / "estimates.csv"),
    ])
    assert rc == 0
    estimates = read_estimates_csv((tmp_path / "estimates.csv").read_text())
    by_id = {e.id: e for e in estimates}
    assert {k: v.units for k, v in by_id.items()} == EXPECTED_UNITS


def test_estimate_empty_footprints(tmp_path):
    _prepare_rasters(tmp_path)
    (tmp_path / "empty.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": []})
    )
    rc = main([
        "estimate", "--dsm", str(tmp_path / "dsm.asc"), "--dtm", str(tmp_path / "dtm.asc"),
        "--footprints", str(tmp_path / "empty.geojson"),
        "--out-heights", str(tmp_path / "heights.csv"),
        "--out-estimates", str(tmp_path / "estimates.csv"),
    ])
    assert rc == 0
    assert (tmp_path / "heights.csv").read_text().splitlines() == [
        "id,type_label,height_m,footprint_area_m2,valid_cells"
    ]
    assert len((tmp_path / "estimates.csv").read_text().splitlines()) == 1


def test_estimate_off_grid_footprint_is_warning_not_fatal(tmp_path, capsys):
    _prepare_rasters(tmp_path)
    fps = json.loads((tmp_path / "fp.geojson").read_text())
    fps["features"].append({
        "type": "Feature",
        "properties": {"id": "OFF", "type_label": "TypeA", "unit_area_m2": 150.0,
                       "units_per_floor": 4},
        "geometry": {"type": "Polygon",
                     "coordinates": [[[900, 900], [910, 900], [910, 910], [900, 910], [900, 900]]]},
    })
    (tmp_path / "fp2.geojson").write_text(json.dumps(fps))
    rc = main([
        "estimate", "--dsm", str(tmp_path / "dsm.asc"), "--dtm", str(tmp_path / "dtm.asc"),
        "--footprints", str(tmp_path / "fp2.geojson"),
        "--out-heights", str(tmp_path / "heights.csv"),
        "--out-estimates", str(tmp_path / "estimates.csv"),
    ])
    assert rc == 0
    assert "OFF" in capsys.readouterr().err
    estimates = read_estimates_csv((tmp_path / "estimates.csv").read_text())
    by_id = {e.id: e for e in estimates}
    assert by_id["OFF"].excluded
    assert "error" in by_id["OFF"].excluded_reason
    # the other buildings are unaffected
    assert {k: v.units for k, v in by_id.items() if k != "OFF"} == EXPECTED_UNITS


def test_estimate_reason_with_comma_survives_csv_round_trip(tmp_path):
    # a footprint with too few valid cells produces an error reason
    # containing a comma; the CSV must stay parseable
    _prepare_rasters(tmp_path)
    dsm = read_ascii_grid((tmp_path / "dsm.asc").read_bytes())
    data = dsm.data.copy()
    data[:, 0:12] = np.nan  # westmost strip becomes nodata
    (tmp_path / "dsm2.asc").write_text(
        write_ascii_grid(Grid(dsm.georef, data, dsm.nodata))
    )
    fps = json.loads((tmp_path / "fp.geojson").read_text())
    fps["features"] = [{
        "type": "Feature",
        "properties": {"id": "EDGE", "type_label": "TypeA", "unit_area_m2": 150.0,
                       "units_per_floor": 4},
        "geometry": {"type": "Polygon",
                     "coordinates": [[[2, 20], [10, 20], [10, 30], [2, 30], [2, 20]]]},
    }]
    (tmp_path / "fp_edge.geojson").write_text(json.dumps(fps))
    rc = main([
        "estimate", "--dsm", str(tmp_path / "dsm2.asc"), "--dtm", str(tmp_path / "dtm.asc"),
        "--footprints", str(tmp_path / "fp_edge.geojson"),
        "--out-heights", str(tmp_path / "heights.csv"),
        "--out-estimates", str(tmp_path / "estimates.csv"),
    ])
    assert rc == 0
    rows = read_estimates_csv((tmp_path / "estimates.csv").read_text())
    assert len(rows) == 1
    assert rows[0].excluded
    assert "valid cells" in rows[0].excluded_reason


def test_validate_command(tmp_path):
    _prepare_rasters(tmp_path)
    main([
        "estimate", "--dsm", str(tmp_path / "dsm.asc"), "--dtm", str(tmp_path / "dtm.asc"),
        "--footprints", str(tmp_path / "fp.geojson"),
        "--out-heights", str(tmp_path / "heights.csv"),
        "--out-estimates", str(tmp_path / "estimates.csv"),
    ])
    (tmp_path / "gt.csv").write_text("type_label,units\nTypeA,56\nTypeB,28\n")
    rc = main([
        "validate", "--estimates", str(tmp_path / "estimates.csv"),
        "--ground-truth", str(tmp_path / "gt.csv"),
        "--out", str(tmp_path / "report.csv"),
    ])
    assert rc == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[-1] == "TOTAL,84,84,0.00"


OSM_FIXTURE = """<?xml version="1.0"?>
<osm version="0.6">
  <node id="1" lat="23.0045" lon="72.5"><tag k="amenity" v="hospital"/><tag k="name" v="North Clinic"/></node>
  <node id="2" lat="23.0135" lon="72.5"><tag k="amenity" v="hospital"/></node>
  <node id="3" lat="23.027" lon="72.5"><tag k="amenity" v="hospital"/></node>
  <node id="4" lat="23.0" lon="72.508"><tag k="amenity" v="school"/></node>
  <node id="5" lat="23.0" lon="72.54"><tag k="amenity" v="pharmacy"/></node>
</osm>
"""

RULES_JSON = json.dumps([
    {"category": "hospital", "key": "amenity", "value": "hospital"},
    {"category": "school", "key": "amenity", "value": "school"},
])


AMENITY_QUERY = {"center_lat": 23.0, "center_lon": 72.5, "radius_m": 2000.0}


def amenities_argv(tmp_path, config):
    return [
        "amenities", "--osm", str(tmp_path / "site.osm"), "--rules", str(tmp_path / "rules.json"),
        "--config", str(config),
        "--out-records", str(tmp_path / "records.csv"),
        "--out-summary", str(tmp_path / "summary.csv"),
    ]


def test_amenities_command(tmp_path):
    (tmp_path / "site.osm").write_text(OSM_FIXTURE)
    (tmp_path / "rules.json").write_text(RULES_JSON)
    (tmp_path / "config.json").write_text(json.dumps(AMENITY_QUERY))
    assert main(amenities_argv(tmp_path, tmp_path / "config.json")) == 0
    summary = dict(
        line.split(",") for line in (tmp_path / "summary.csv").read_text().splitlines()[1:]
    )
    # hospitals at ~500 m and ~1500 m are inside; ~3000 m is not
    assert summary == {"hospital": "2", "school": "1"}
    records = (tmp_path / "records.csv").read_text().splitlines()
    assert records[0] == "category,element_id,name,lat,lon,distance_m"
    assert len(records) == 4


def test_model3d_command(tmp_path):
    fps = [Footprint("B1", "T", rectangle_ring(0, 0, 10, 12))]
    (tmp_path / "fp.geojson").write_text(footprints_to_geojson(fps))
    (tmp_path / "h.csv").write_text("id,type_label,height_m\nB1,T,6.000\n")
    rc = main([
        "model3d", "--footprints", str(tmp_path / "fp.geojson"),
        "--heights", str(tmp_path / "h.csv"), "--out", str(tmp_path / "model.obj"),
    ])
    assert rc == 0
    obj = (tmp_path / "model.obj").read_text().splitlines()
    assert sum(1 for l in obj if l.startswith("v ")) == 8
    assert sum(1 for l in obj if l.startswith("f ")) == 6


def test_model3d_counts_zero_height_footprints_as_skipped(tmp_path, capsys):
    """A footprint left out of the OBJ for its zero height counts as skipped,
    as one without a height does."""
    fps = [Footprint(bid, "T", rectangle_ring(0, 0, 70, 70)) for bid in ("A", "B")]
    (tmp_path / "fp.geojson").write_text(footprints_to_geojson(fps))
    (tmp_path / "h.csv").write_text("id,type_label,height_m\nA,T,6.000\nB,T,0.000\n")
    assert main([
        "model3d", "--footprints", str(tmp_path / "fp.geojson"),
        "--heights", str(tmp_path / "h.csv"), "--out", str(tmp_path / "model.obj"),
    ]) == 0
    assert capsys.readouterr().out == "model3d: 1 buildings, 8 vertices, 6 faces (1 skipped)\n"


def _write_run_config(tmp_path):
    scene = write_scene(tmp_path)
    main([
        "synth", "--scene", str(scene),
        "--out-dsm", str(tmp_path / "dsm.asc"),
        "--out-footprints", str(tmp_path / "fp.geojson"),
    ])
    (tmp_path / "gt.csv").write_text("type_label,units\nTypeA,56\nTypeB,28\n")
    (tmp_path / "site.osm").write_text(OSM_FIXTURE)
    (tmp_path / "rules.json").write_text(RULES_JSON)
    config = {
        "dsm": "dsm.asc",
        "footprints": "fp.geojson",
        "ground_truth": "gt.csv",
        "osm": "site.osm",
        "rules": "rules.json",
        **AMENITY_QUERY,
        "out_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path / "config.json"


def test_run_full_pipeline(tmp_path):
    config = _write_run_config(tmp_path)
    rc = main(["run", "--config", str(config)])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["totals"]["units"] == sum(EXPECTED_UNITS.values())
    assert summary["totals"]["by_type"]["TypeA"]["units"] == 56
    assert summary["totals"]["by_type"]["TypeB"]["units"] == 28
    assert summary["stages"]["validate"]["total_diff_pct"] == 0.0
    assert summary["stages"]["amenities"]["counts"] == {"hospital": 2, "school": 1}
    # RUN_OUTPUTS, which a run's inputs must not be, is every file it writes
    written = {name for stage in summary["stages"].values() for name in stage.get("outputs", [])}
    assert written | {"summary.json"} == set(RUN_OUTPUTS)
    for name in RUN_OUTPUTS:
        assert (tmp_path / "out" / name).is_file()


def test_run_missing_dsm_key(tmp_path, capsys):
    (tmp_path / "config.json").write_text(json.dumps({"footprints": "x", "out_dir": "out"}))
    rc = main(["run", "--config", str(tmp_path / "config.json")])
    assert rc != 0
    assert "dsm" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra,message",
    [
        ({"floor_height_m": "3"}, "config key 'floor_height_m' must be a finite number, got '3'"),
        ({"occupancy_rate": True}, "config key 'occupancy_rate' must be a finite number, got True"),
        ({"min_cells": [4]}, "config key 'min_cells' must be a finite number, got [4]"),
        ({"efficiency": float("nan")}, "config key 'efficiency' must be a finite number, got nan"),
        ({"bands": {"persons": 2}}, "config key 'bands' must be a list of objects"),
        ({"bands": [3]}, "config key 'bands' must be a list of objects"),
        ({"bands": [{"min_area_m2": 40, "max_area_m2": 60}]}, "bands[0]: missing 'persons'"),
        ({"bands": [{"min_area_m2": 40, "max_area_m2": "60", "persons": 3}]},
         "bands[0] 'max_area_m2' must be a finite number, got '60'"),
        ({"slope": "0.3"}, "config key 'slope' must be a finite number, got '0.3'"),
        ({"initial_window": False}, "config key 'initial_window' must be a finite number, got False"),
        ({"max_window_m": float("inf")}, "config key 'max_window_m' must be a finite number, got inf"),
        ({"radius_m": True}, "config key 'radius_m' must be a finite number, got True"),
        ({"radius_m": "inf"}, "config key 'radius_m' must be a finite number, got 'inf'"),
        ({"center_lon": [72.5]}, "config key 'center_lon' must be a finite number, got [72.5]"),
        ({"base_elevation_m": True},
         "config key 'base_elevation_m' must be a finite number, got True"),
        ({"base_elevation_m": float("inf")},
         "config key 'base_elevation_m' must be a finite number, got inf"),
        ({"base_elevation_m": float("nan")},
         "config key 'base_elevation_m' must be a finite number, got nan"),
        ({"center_lat": 10**400}, f"config key 'center_lat' must be a finite number, got {10**400}"),
        ({"height_percentile": 150}, "height_percentile must be in [0, 100], got 150"),
        ({"height_percentile": -0.5}, "height_percentile must be in [0, 100], got -0.5"),
        ({"min_cells": 0}, "min_cells must be an integer >= 1, got 0"),
        ({"min_cells": 2.5}, "min_cells must be an integer >= 1, got 2.5"),
        ({"dsm": 5}, "config key 'dsm' must be a path string, got 5"),
        ({"out_dir": ["out"]}, "config key 'out_dir' must be a path string, got ['out']"),
        ({"rules": {"path": "rules.json"}},
         "config key 'rules' must be a path string, got {'path': 'rules.json'}"),
        ({"published_reference": True},
         "config key 'published_reference' must be a path string, got True"),
        ({"occupancy": 0.5}, "unknown config key 'occupancy'; did you mean 'occupancy_rate'?"),
        ({"zzz": 1}, "unknown config key 'zzz'"),
    ],
)
def test_non_numeric_config_values_are_typed_errors(tmp_path, capsys, extra, message):
    """Each case through ``run`` and through every subcommand that reads its
    key; an unknown key or a bad path key through every command with
    ``--config``."""
    for name in ("dsm.asc", "fp.geojson", "h.csv", "site.osm", "rules.json"):
        (tmp_path / name).write_text("never read\n")
    config = {"dsm": "dsm.asc", "footprints": "fp.geojson", "out_dir": "out", **extra}
    (tmp_path / "config.json").write_text(json.dumps(config))
    cli = popvol.cli
    with_config = ["--config", str(tmp_path / "config.json")]
    readers = {
        (*cli.ESTIMATION_KEYS, "bands"): [
            "estimate", *with_config,
            "--dsm", str(tmp_path / "dsm.asc"), "--dtm", str(tmp_path / "dsm.asc"),
            "--footprints", str(tmp_path / "fp.geojson"),
            "--out-heights", str(tmp_path / "s_h.csv"), "--out-estimates", str(tmp_path / "e.csv"),
        ],
        cli.FILTER_KEYS: [
            "dtm", *with_config, "--dsm", str(tmp_path / "dsm.asc"),
            "--out-dtm", str(tmp_path / "dtm.asc"),
        ],
        cli.AMENITY_KEYS: amenities_argv(tmp_path, tmp_path / "config.json"),
        ("base_elevation_m",): [
            "model3d", *with_config, "--footprints", str(tmp_path / "fp.geojson"),
            "--heights", str(tmp_path / "h.csv"), "--out", str(tmp_path / "model.obj"),
        ],
    }
    parameters = {k for keys in readers for k in keys}
    commands = [["run", *with_config]] + [
        argv for keys, argv in readers.items()
        if set(extra) & set(keys) or not set(extra) & parameters
    ]
    assert len(commands) > 1
    for argv in commands:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv
    for name in ("out", "s_h.csv", "dtm.asc", "records.csv", "model.obj"):
        assert not (tmp_path / name).exists()


def test_excluded_rows_keep_height_when_only_the_estimate_fails(tmp_path):
    _prepare_rasters(tmp_path)
    # B1 has a height but no unit metadata; OFF selects no cells at all
    fps = [Footprint("B1", "TypeA", rectangle_ring(15, 15, 30, 30)),
           Footprint("OFF", "TypeA", rectangle_ring(500, 500, 10, 10))]
    (tmp_path / "fp.geojson").write_text(footprints_to_geojson(fps))
    assert main([
        "estimate", "--dsm", str(tmp_path / "dsm.asc"), "--dtm", str(tmp_path / "dtm.asc"),
        "--footprints", str(tmp_path / "fp.geojson"),
        "--out-heights", str(tmp_path / "h.csv"), "--out-estimates", str(tmp_path / "e.csv"),
    ]) == 0
    (b1_height,) = [row.split(",")[2] for row in (tmp_path / "h.csv").read_text().splitlines()[1:]]
    lines = (tmp_path / "e.csv").read_text().splitlines()
    assert lines[1:] == [
        f"B1,TypeA,{b1_height},0,0,0,,0.000,error: building 'B1': unit_area_m2 is required "
        "to assign persons per unit",
        "OFF,TypeA,,0,0,0,,0.000,error: footprint 'OFF' selects no raster cells",
    ]


@pytest.mark.parametrize(
    "config,footprint,excluded",
    [
        ({"floor_height_m": 1e-320}, {},
         {fid: "over floor_height_m 1e-320 gives inf floors" for fid in ("A1", "B1", "C2")}),
        ({}, {"unit_area_m2": 5e-324, "units_per_floor": None},
         {"A1": "over unit_area_m2 5e-324 gives inf units per floor"}),
    ],
    ids=["floor_height", "unit_area"],
)
def test_run_excludes_a_building_whose_floors_or_units_overflow(
    tmp_path, capsys, config, footprint, excluded
):
    """Once an OverflowError traceback; now an excluded row and a warning
    per building, and exit 0. Without ground truth, because a run whose every
    building is excluded stops at validation."""
    site = tmp_path / "demo"
    shutil.copytree(DEMO, site)
    doc = json.loads((site / "out" / "footprints.geojson").read_text())
    properties = doc["features"][0]["properties"]  # A1's
    for key, value in footprint.items():
        if value is None:
            del properties[key]
        else:
            properties[key] = value
    (site / "fp.geojson").write_text(json.dumps(doc))
    cfg = json.loads((site / "config.json").read_text())
    del cfg["ground_truth"]
    (site / "config.json").write_text(json.dumps({**cfg, **config, "footprints": "fp.geojson"}))
    argv = ["run", "--config", str(site / "config.json"), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    estimates = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
    rows = {line.split(",")[0]: line for line in estimates}
    warnings = json.loads((tmp_path / "out" / "summary.json").read_text())["warnings"]
    for fid, message in excluded.items():
        assert f",error: building '{fid}': " in rows[fid] and rows[fid].endswith(message), rows[fid]
        assert any(w.startswith(f"building '{fid}': ") and w.endswith(message) for w in warnings)


def test_run_and_validate_name_the_types_whose_buildings_are_all_excluded(tmp_path, capsys):
    """Every demo building gets inf floors, so is excluded: the ground-truth
    types have no estimate, and both commands say why in the same words."""
    site = tmp_path / "demo"
    shutil.copytree(DEMO, site)
    cfg = json.loads((site / "config.json").read_text())
    (site / "config.json").write_text(json.dumps({**cfg, "floor_height_m": 1e-320}))
    message = (
        "error: type labels do not match (all buildings excluded: TypeA, TypeB, TypeC)\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(site / "config.json"), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not (out / "summary.json").exists()
    assert main(["validate", "--estimates", str(out / "estimates.csv"), "--ground-truth",
                 str(site / "ground_truth.csv"), "--out", str(tmp_path / "report.csv")]) == 2
    assert capsys.readouterr().err == message


def test_run_matches_standalone_stages(tmp_path):
    # `run` must produce the same bytes as driving each stage by hand with
    # the run's config, because the CSVs are the inter-stage contract
    config = _write_run_config(tmp_path)
    # a 0.15 m first threshold flags terrain noise, so the DTM itself changes
    non_default = {"slope": 0.2, "max_window_m": 40.0, "initial_threshold_m": 0.15,
                   "floor_height_m": 2.8, "height_percentile": 80.0, "base_elevation_m": 12.5}
    config.write_text(json.dumps({**json.loads(config.read_text()), **non_default}))
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    with_config = ["--config", str(config)]
    assert main([
        "dtm", *with_config, "--dsm", str(tmp_path / "dsm.asc"),
        "--out-dtm", str(tmp_path / "s_dtm.asc"), "--out-mask", str(tmp_path / "s_ground_mask.asc"),
    ]) == 0
    assert main([
        "estimate", *with_config, "--dsm", str(tmp_path / "dsm.asc"),
        "--dtm", str(tmp_path / "s_dtm.asc"), "--footprints", str(tmp_path / "fp.geojson"),
        "--out-heights", str(tmp_path / "s_heights.csv"),
        "--out-estimates", str(tmp_path / "s_estimates.csv"),
    ]) == 0
    assert main([
        "validate", "--estimates", str(tmp_path / "s_estimates.csv"),
        "--ground-truth", str(tmp_path / "gt.csv"), "--out", str(tmp_path / "s_validation.csv"),
    ]) == 0
    assert main([
        "model3d", *with_config, "--footprints", str(tmp_path / "fp.geojson"),
        "--heights", str(tmp_path / "s_heights.csv"), "--out", str(tmp_path / "s_model.obj"),
    ]) == 0
    assert main([
        "amenities", *with_config,
        "--osm", str(tmp_path / "site.osm"), "--rules", str(tmp_path / "rules.json"),
        "--out-records", str(tmp_path / "s_amenities.csv"),
        "--out-summary", str(tmp_path / "s_amenities_summary.csv"),
    ]) == 0
    names = ("dtm.asc", "ground_mask.asc", "heights.csv", "estimates.csv", "validation.csv",
             "model.obj", "amenities.csv", "amenities_summary.csv")
    for name in names:
        assert (tmp_path / f"s_{name}").read_bytes() == (out / name).read_bytes(), name
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ("summary.json",))


def test_run_rerun_byte_identical(tmp_path):
    config = _write_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    first = {
        p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())
    }
    assert main(["run", "--config", str(config)]) == 0
    second = {
        p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())
    }
    assert first == second


# the amenity stage of `run` runs in a forked child; these pin that every
# way it can fail gives what a serial run gives


def _run_outputs(config) -> dict[str, bytes]:
    assert main(["run", "--config", str(config)]) == 0
    return {p.name: p.read_bytes() for p in sorted((config.parent / "out").iterdir())}


def _failing_amenity_child(mp, failure):
    """Make the amenity child fail: no fork, a fork that raises, a child that
    exits 3, or one that exits 0 leaving a short file."""
    if failure == "no_fork":
        mp.delattr(popvol._bands.os, "fork")
    elif failure == "fork_error":
        def fork():
            raise OSError("fork unavailable")
        mp.setattr(popvol._bands.os, "fork", fork)
    elif failure in ("exit_3", "short_file"):
        real = popvol.cli.amenity_texts

        def texts(*args):
            result = real(*args)
            if in_child():
                if failure == "exit_3":
                    os._exit(3)
                return [bytes(100_000), ExitWhenPickled(0)]
            return result
        mp.setattr(popvol.cli, "amenity_texts", texts)


@pytest.mark.parametrize("failure", ["none", "fork_error", "exit_3", "short_file"])
def test_run_outputs_equal_the_serial_run_whatever_the_amenity_child_does(tmp_path, failure):
    config = _write_run_config(tmp_path)
    with pytest.MonkeyPatch.context() as mp:
        _failing_amenity_child(mp, "no_fork")
        serial = _run_outputs(config)
    shutil.rmtree(tmp_path / "out")
    with pytest.MonkeyPatch.context() as mp:
        _failing_amenity_child(mp, failure)
        assert _run_outputs(config) == serial
    assert_no_children()


@pytest.mark.parametrize("failure", ["none", "no_fork", "exit_3"])
def test_dropped_ways_warning_is_logged_once(tmp_path, caplog, failure):
    config = _write_run_config(tmp_path)
    osm = OSM_FIXTURE.replace("</osm>", '  <way id="9"><nd ref="404"/></way>\n</osm>')
    (tmp_path / "site.osm").write_text(osm)
    with caplog.at_level(logging.WARNING, logger="popvol.osm"), pytest.MonkeyPatch.context() as mp:
        _failing_amenity_child(mp, failure)
        assert main(["run", "--config", str(config)]) == 0
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("popvol.osm", "dropped 1 ways with no resolvable member nodes")
    ]


@pytest.mark.parametrize(
    "name,content,message",
    [
        ("site.osm", "<osm><node", "malformed XML: unclosed token: line 1, column 5"),
        ("rules.json", "[{", "invalid rules JSON: Expecting property name enclosed in double "
         "quotes: line 1 column 3 (char 2)"),
    ],
)
def test_broken_amenity_input_fails_at_the_amenity_stage(tmp_path, capsys, name, content, message):
    config = _write_run_config(tmp_path)
    (tmp_path / name).write_text(content)
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "dtm.asc", "estimates.csv", "ground_mask.asc", "heights.csv", "model.obj", "validation.csv"
    ]
    assert_no_children()


def test_failing_earlier_stage_stops_the_amenity_child(tmp_path, capsys, monkeypatch):
    config = _write_run_config(tmp_path)
    (tmp_path / "fp.geojson").write_text("{nope")
    real = popvol.cli.amenity_texts

    def slow_in_child(*args):
        if in_child():
            time.sleep(60)
        return real(*args)

    monkeypatch.setattr(popvol.cli, "amenity_texts", slow_in_child)
    t0 = time.perf_counter()
    assert main(["run", "--config", str(config)]) == 2
    assert time.perf_counter() - t0 < 30
    assert capsys.readouterr().err.startswith("error: invalid JSON: ")
    assert_no_children()
    # the footprints fail before the grids are written, so no output is left
    assert not (tmp_path / "out").exists()


DEMO = Path(__file__).resolve().parents[1] / "demo"


def test_demo_reproduces_committed_outputs(tmp_path):
    _assert_demo_reproduced(tmp_path)


def test_demo_reproduces_committed_outputs_in_bands(tmp_path):
    """Every grid read and written in three row bands, and the PMF in two:
    with its 64-row halo, a third band would cover the demo's grid."""
    with split_into(3):
        _assert_demo_reproduced(tmp_path)


def _assert_demo_reproduced(tmp_path):
    for name in ("scene.json", "config.json", "ground_truth.csv", "site.osm", "rules.json"):
        shutil.copy(DEMO / name, tmp_path / name)
    out = tmp_path / "out"
    assert main([
        "synth", "--scene", str(tmp_path / "scene.json"),
        "--out-dsm", str(out / "dsm.asc"), "--out-footprints", str(out / "footprints.geojson"),
    ]) == 0
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
    golden = sorted(p.name for p in (DEMO / "out").iterdir())
    assert sorted(p.name for p in out.iterdir()) == golden
    for name in golden:
        assert (out / name).read_bytes() == (DEMO / "out" / name).read_bytes(), name


# A1 widened by 5 m onto the ground around it, and a footprint on open ground
_WIDE_A1 = [[10.0, 10.0], [50.0, 10.0], [50.0, 50.0], [10.0, 50.0], [10.0, 10.0]]
_OPEN_GROUND = [[100.0, 60.0], [130.0, 60.0], [130.0, 100.0], [100.0, 100.0], [100.0, 60.0]]


def _relabel_outputs(site: Path, out: Path, nodata: float | None) -> dict:
    """The outputs of `dtm --out-mask`, `estimate` and `run` on the demo DSM,
    its NODATA_value line rewritten to ``nodata`` unless that is None."""
    dsm_text = (site / "out" / "dsm.asc").read_text()
    if nodata is not None:
        dsm_text = dsm_text.replace("NODATA_value -9999\n", f"NODATA_value {format_value(nodata)}\n")
    (out / "run").mkdir(parents=True)
    (out / "dsm.asc").write_text(dsm_text)
    assert main(["dtm", "--dsm", str(out / "dsm.asc"), "--out-dtm", str(out / "dtm.asc"),
                 "--out-mask", str(out / "ground_mask.asc")]) == 0
    assert main(["estimate", "--dsm", str(out / "dsm.asc"), "--dtm", str(out / "dtm.asc"),
                 "--footprints", str(site / "fp.geojson"), "--out-heights",
                 str(out / "heights.csv"), "--out-estimates", str(out / "estimates.csv")]) == 0
    config = json.loads((site / "config.json").read_text())
    config.update(dsm=str(out / "dsm.asc"), footprints="fp.geojson")
    (site / f"{out.name}.json").write_text(json.dumps(config))  # inputs beside it
    assert main(["run", "--config", str(site / f"{out.name}.json"), "--out-dir", str(out / "run")]) == 0
    return {
        **{name: (out / name).read_text()
           for name in ("dtm.asc", "ground_mask.asc", "heights.csv", "estimates.csv")},
        **{f"run/{p.name}": p.read_text() for p in (out / "run").iterdir()},
    }


def test_a_relabelled_nodata_sentinel_changes_only_the_dtm_header(tmp_path):
    """Rewriting only the DSM's NODATA_value, to a value no cell holds,
    changes no output but line 6 of dtm.asc, which keeps the DSM's sentinel.
    Once a sentinel of 0 made every ground cell of the heights nodata: A1
    then read 900 of its 1,600 cells and the open-ground footprint failed."""
    site = tmp_path / "demo"
    shutil.copytree(DEMO, site)
    doc = json.loads((site / "out" / "footprints.geojson").read_text())
    a1 = doc["features"][0]
    a1["geometry"]["coordinates"] = [_WIDE_A1]
    ground = json.loads(json.dumps(a1))
    ground["properties"]["id"] = "G1"
    ground["geometry"]["coordinates"] = [_OPEN_GROUND]
    doc["features"].append(ground)
    (site / "fp.geojson").write_text(json.dumps(doc))
    cells = set(read_ascii_grid((site / "out" / "dsm.asc").read_bytes()).data.ravel().tolist())
    base = _relabel_outputs(site, tmp_path / "base", None)
    heights = {line.split(",")[0]: line for line in base["heights.csv"].splitlines()}
    assert heights["A1"].endswith(",1600.000,1600")
    estimates = {line.split(",")[0]: line for line in base["estimates.csv"].splitlines()}
    assert estimates["G1"].endswith(",below minimum height")
    runs = itertools.count()

    @settings(derandomize=True, database=None, max_examples=4, deadline=None)
    @given(nodata=st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda v: v not in cells))
    @example(nodata=0.0)
    @example(nodata=1.0)
    def check(nodata):
        got = _relabel_outputs(site, tmp_path / str(next(runs)), nodata)
        dtm, base_dtm = got.pop("dtm.asc").splitlines(), base["dtm.asc"].splitlines()
        assert dtm[5] == f"NODATA_value {format_value(nodata)}"
        assert dtm[:5] + dtm[6:] == base_dtm[:5] + base_dtm[6:]
        assert got.pop("run/dtm.asc").splitlines() == dtm
        assert got == {k: v for k, v in base.items() if k not in ("dtm.asc", "run/dtm.asc")}

    check()


def test_synth_refuses_a_scene_that_holds_the_sentinel(tmp_path, capsys):
    """Terrain at exactly -9999 m would read back as nodata, so every demo
    building would read 0 m; the writer refuses it and writes no file."""
    scene = json.loads((DEMO / "scene.json").read_text())
    scene["terrain"] = {"origin_elev": -9999.0}
    scene["noise_amplitude_m"] = 0.0
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    argv = ["synth", "--scene", str(tmp_path / "scene.json"),
            "--out-dsm", str(tmp_path / "out" / "dsm.asc")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cannot write grid: row 0, col 0 equals NODATA_value -9999\n"
    assert not (tmp_path / "out" / "dsm.asc").exists()


def test_synth_writes_no_file_when_the_truth_dtm_holds_the_sentinel(tmp_path, capsys):
    """Terrain at exactly -9999 m under one prism that covers the grid: the
    DSM (-9994 m everywhere) can be written, the truth DTM cannot, and the
    refusal comes before either file is written."""
    scene = json.loads((DEMO / "scene.json").read_text())
    scene["georef"] = {"ncols": 20, "nrows": 10, "xll": 0.0, "yll": 0.0, "cellsize": 1.0}
    scene["terrain"] = {"origin_elev": -9999.0}
    scene["noise_amplitude_m"] = 0.0
    scene["prisms"] = [dict(scene["prisms"][0], ring=rectangle_ring(0, 0, 20, 10), height_m=5.0)]
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    out = tmp_path / "out"
    argv = ["synth", "--scene", str(tmp_path / "scene.json"),
            "--out-dsm", str(out / "dsm.asc"), "--out-truth-dtm", str(out / "truth_dtm.asc")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cannot write grid: row 0, col 0 equals NODATA_value -9999\n"
    assert not out.exists()
    # the same scene without the truth DTM writes its DSM
    assert main(argv[:-2]) == 0
    assert set(read_ascii_grid((out / "dsm.asc").read_bytes()).data.ravel()) == {-9994.0}


@pytest.mark.parametrize("truth", [False, True])
def test_synth_traced_peak_is_the_dsm_text_twice_and_one_grid(tmp_path, truth):
    """``synth`` on a noisy 600x500 scene, written in row bands, peaks under
    tracemalloc at no more than twice the DSM text plus one grid of 8 bytes
    per cell and 1 MB, with the truth DTM and without: it keeps no grid it
    does not write, and the writer lets go of a grid handed to it before it
    joins that grid's text. A second grid alive at the join, 2.4 MB, would
    not fit in the 1 MB margin."""
    scene = {
        **SCENE,
        "georef": {"ncols": 600, "nrows": 500, "xll": 0.0, "yll": 0.0, "cellsize": 1.0},
        "noise_amplitude_m": 0.3,
    }
    argv = ["synth", "--scene", str(write_scene(tmp_path, scene)),
            "--out-dsm", str(tmp_path / "dsm.asc")]
    if truth:
        argv += ["--out-truth-dtm", str(tmp_path / "truth.asc")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "dsm.asc").stat().st_size  # ASCII: one byte per character
    assert peak <= 2 * text + 8 * 600 * 500 + 2**20, (peak, text)


def test_run_traced_peak_is_the_dtm_text_twice_and_one_grid(tmp_path):
    """``run`` on a noisy 600x500 scene, in two row bands, peaks under
    tracemalloc at no more than twice the DTM text plus one grid of 8 bytes
    per cell and 1 MB: the DSM is parsed from its mapping in the band
    children, and the grids are written after the estimate, the DTM last,
    so no DSM, nDSM or DTM array is alive where its text is joined, and the
    estimate's grids fit under the bound. The DSM, the DTM and the ground
    mask alive at the join, 17 bytes per cell, would not fit."""
    scene = {
        **SCENE,
        "georef": {"ncols": 600, "nrows": 500, "xll": 0.0, "yll": 0.0, "cellsize": 1.0},
        "noise_amplitude_m": 0.3,
    }
    assert main(["synth", "--scene", str(write_scene(tmp_path, scene)),
                 "--out-dsm", str(tmp_path / "dsm.asc"),
                 "--out-footprints", str(tmp_path / "fp.geojson")]) == 0
    (tmp_path / "config.json").write_text(
        json.dumps({"dsm": "dsm.asc", "footprints": "fp.geojson", "out_dir": "out"})
    )
    with split_into(2):
        tracemalloc.start()
        try:
            assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    text = (tmp_path / "out" / "dtm.asc").stat().st_size  # ASCII: one byte per character
    assert peak <= 2 * text + 8 * 600 * 500 + 2**20, (peak, text)


def test_readme_library_block_prints_the_demo_totals(tmp_path):
    """The README's "Library use" block, run as a script beside copies of
    the demo DSM and footprints, prints the totals of the demo's summary.json
    and the persons per unit of an 87 m² unit, and nothing on stderr under
    dev mode with warnings as errors (a file left unclosed is a ResourceWarning)."""
    readme = (DEMO.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    for name in ("dsm.asc", "footprints.geojson"):
        shutil.copy(DEMO / "out" / name, tmp_path / name)
    src = Path(popvol.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", block], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout == "96 472\n4.0\n"
    totals = json.loads((DEMO / "out" / "summary.json").read_text())["totals"]
    assert (totals["units"], totals["persons_rounded"]) == (96, 472)


def test_demo_run_is_silent_under_dev_mode_with_warnings_as_errors(tmp_path):
    """A child process, so that a ResourceWarning from an unclosed file in
    the forked paths, which only shows at exit, fails the run."""
    src = Path(popvol.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "popvol.cli", "run",
         "--config", str(DEMO / "config.json"), "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    synth_outputs = {"dsm.asc", "footprints.geojson"}
    assert written == sorted({p.name for p in (DEMO / "out").iterdir()} - synth_outputs)
    for name in written:
        assert (tmp_path / "out" / name).read_bytes() == (DEMO / "out" / name).read_bytes(), name


def test_banded_dtm_and_run_are_silent_under_dev_mode(tmp_path):
    """``dtm`` and ``run`` on a scene of ``MIN_SPLIT_CELLS`` cells or more,
    split into two row bands whatever the CPU count, each in a child under
    dev mode with ``OPENBLAS_NUM_THREADS`` unset: exit 0, nothing on stderr,
    and the outputs of an in-process run. A mapping or temporary file left
    unclosed is a ResourceWarning there, and on CPython 3.12 and later a
    fork beside a second thread, such as OpenBLAS's pool, a
    DeprecationWarning; ``-W error`` would swallow that one."""
    scene = {
        **SCENE,
        "georef": {"ncols": 400, "nrows": 300, "xll": 0.0, "yll": 0.0, "cellsize": 1.0},
    }
    assert 400 * 300 >= popvol._bands.MIN_SPLIT_CELLS
    assert main(["synth", "--scene", str(write_scene(tmp_path, scene)),
                 "--out-dsm", str(tmp_path / "dsm.asc"),
                 "--out-footprints", str(tmp_path / "fp.geojson")]) == 0
    (tmp_path / "config.json").write_text(
        json.dumps({"dsm": "dsm.asc", "footprints": "fp.geojson", "out_dir": "out"})
    )

    def argv(out):
        return [
            ["dtm", "--dsm", str(tmp_path / "dsm.asc"), "--out-dtm", str(out / "dtm.asc"),
             "--out-mask", str(out / "mask.asc")],
            ["run", "--config", str(tmp_path / "config.json"), "--out-dir", str(out / "run")],
        ]

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    for args in argv(tmp_path / "child"):
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-c",
             "import os, sys\n"
             "os.sched_getaffinity = lambda pid: {0, 1}\n"
             "from popvol.cli import main\n"
             f"sys.exit(main({args!r}))"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
    with split_into(2):
        for args in argv(tmp_path / "parent"):
            assert main(args) == 0
    for name in ("dtm.asc", "mask.asc", *(f"run/{n}" for n in RUN_OUTPUTS)):
        if (tmp_path / "parent" / name).exists():
            child = (tmp_path / "child" / name).read_bytes()
            assert child == (tmp_path / "parent" / name).read_bytes(), name


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts Linux /proc/self/task")
def test_the_first_command_loads_numpy_with_one_blas_thread(tmp_path):
    """With ``OPENBLAS_NUM_THREADS`` unset, loading the stages leaves one OS
    thread and the variable unset again; a value the user set is kept, and
    gives the thread count a bare numpy import gives."""
    probe = (
        "import os, sys\n"
        "if sys.argv[1] == 'popvol':\n"
        "    import popvol.cli\n"
        "    popvol.cli._load()\n"
        "else:\n"
        "    import numpy\n"
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )

    def threads(what, **setting):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        result = subprocess.run(
            [sys.executable, "-c", probe, what],
            env={**env, "PYTHONPATH": str(SRC), **setting}, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.split()

    assert threads("popvol") == ["1", "None"]
    assert threads("popvol", OPENBLAS_NUM_THREADS="2") == [
        threads("numpy", OPENBLAS_NUM_THREADS="2")[0], "2"
    ]


def test_cli_leaves_scipy_unloaded(tmp_path):
    """Neither importing the CLI nor running ``dtm`` and ``run``, the commands
    with a PMF, loads scipy."""
    config = _write_run_config(tmp_path)
    dtm = ["dtm", "--dsm", str(tmp_path / "dsm.asc"), "--out-dtm", str(tmp_path / "dtm.asc")]
    code = (
        "import sys, popvol.cli\n"
        "assert 'scipy' not in sys.modules, 'scipy imported'\n"
        f"assert popvol.cli.main({dtm!r}) == 0\n"
        f"assert popvol.cli.main(['run', '--config', {str(config)!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy imported'\n"
    )
    src = Path(popvol.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "dtm.asc").read_bytes() == (tmp_path / "dtm.asc").read_bytes()


SRC = Path(popvol.__file__).resolve().parents[1]
# every module of the package but the CLI and the error types it imports
STAGE_MODULES = {f"popvol.{p.stem}" for p in (SRC / "popvol").glob("*.py")} - {
    "popvol.__init__", "popvol.cli", "popvol.errors"
}


def _in_fresh_interpreter(tmp_path, code: str):
    """Run ``code`` in a new interpreter; return its exit code (None when it
    raised no SystemExit), its stdout and the numpy and popvol stage modules
    loaded at the end."""
    probe = tmp_path / "probe.json"
    script = (
        "import json, sys\n"
        "code = None\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "except SystemExit as e:\n"
        "    code = e.code\n"
        f"stages = {sorted(STAGE_MODULES)!r}\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m in stages)\n"
        f"open({str(probe)!r}, 'w').write(json.dumps([code, loaded]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    code, loaded = json.loads(probe.read_text())
    return code, result.stdout, loaded


@pytest.mark.parametrize("argv,code", [
    (["--version"], 0),
    (["--help"], 0),
    (["run", "--help"], 0),
    (["bogus"], 2),
    (["dtm", "--dsm"], 2),
], ids=["version", "help", "run-help", "unknown-command", "missing-value"])
def test_help_version_and_usage_errors_load_no_stage(tmp_path, argv, code):
    """``python -m popvol.cli`` (and the ``popvol`` script, ``main``) load
    numpy and the stages only once a subcommand's arguments parse."""
    got, out, loaded = _in_fresh_interpreter(tmp_path, (
        f"sys.argv = ['popvol'] + {argv!r}\n"
        "import runpy\n"
        "runpy.run_module('popvol.cli', run_name='__main__')"
    ))
    assert (got, loaded) == (code, [])
    if argv == ["--version"]:
        assert out == f"popvol {popvol.__version__}\n"


@pytest.mark.parametrize("code", [
    "import popvol",
    "import popvol.cli",
    "from popvol import __version__",
    "import popvol.cli\npopvol.cli.main(['--version'])",
], ids=["package", "cli", "version-constant", "cli-main-version"])
def test_importing_the_package_or_the_cli_loads_no_stage(tmp_path, code):
    exit_code, _, loaded = _in_fresh_interpreter(tmp_path, code)
    assert (exit_code, loaded) == (0 if "main" in code else None, [])


def test_the_first_command_keeps_a_name_bound_before_it(tmp_path):
    """``perfbench/spans.py`` swaps ``popvol.cli.<name>`` for a wrapper, which
    the command must then call: loading the stages binds no name twice."""
    grid = tmp_path / "dsm.asc"
    grid.write_text(write_ascii_grid(make_grid([[1.0, 1.0], [1.0, 1.0]])))
    code, out, loaded = _in_fresh_interpreter(tmp_path, (
        "import popvol.cli\n"
        "popvol.cli.read_ascii_grid = lambda text: print('wrapped') or real(text)\n"
        "from popvol.grid import read_ascii_grid as real\n"
        f"sys.exit(popvol.cli.main(['dtm', '--dsm', {str(grid)!r}, "
        f"'--out-dtm', {str(tmp_path / 'dtm.asc')!r}]))"
    ))
    assert code == 0
    assert out.splitlines() == ["wrapped", "dtm: 2x2 cells, 0 non-ground"]
    assert "numpy" in loaded and "popvol.dtm" in loaded


# every name `popvol` exported when it imported its submodules eagerly
PUBLIC_NAMES = (
    "DtmFilterParams", "progressive_morphological_filter",
    "AsciiGridError", "ConfigError", "EmptySelectionError", "FootprintError",
    "GeorefMismatchError", "InsufficientCoverageError", "OsmParseError", "PipelineError",
    "ReportMismatchError", "SceneError",
    "DEFAULT_BANDS", "BuildingEstimate", "EstimationConfig", "PersonsBand", "SocietyEstimate",
    "aggregate", "estimate_building", "floors_from_height", "persons_per_unit",
    "units_per_floor",
    "BuildingHeightRecord", "Footprint", "footprint_area", "nearest_rank_percentile",
    "parse_footprints", "rasterize_polygon", "zonal_height",
    "Grid", "GridGeoref", "grid_subtract", "read_ascii_grid", "write_ascii_grid",
    "Mesh", "extrude", "write_obj",
    "AmenityRecord", "OsmElement", "TagRule", "amenities", "count_within_radius",
    "filter_amenities", "haversine_m", "load_rules", "parse_osm",
    "SyntheticScene", "SynthResult", "TerrainModel", "lcg_noise", "load_scene",
    "synthesize_dsm",
    "GroundTruthRow", "ValidationRow", "diff_footnotes", "percent_diff",
    "person_total_footnotes", "read_ground_truth", "render_report_csv", "validate_report",
)


def test_every_public_name_resolves_lazily(tmp_path):
    assert sorted(popvol.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(popvol))
    star: dict = {}
    exec("from popvol import *", star)
    assert {name: star[name] for name in PUBLIC_NAMES} == {
        name: getattr(popvol, name) for name in PUBLIC_NAMES
    }
    code, _, loaded = _in_fresh_interpreter(tmp_path, "import popvol\npopvol.grid.Grid")
    assert (code, "popvol.grid" in loaded) == (None, True)
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        popvol.nothing
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        popvol.cli.nothing


def test_files_are_utf8_with_lf_whatever_the_locale(tmp_path):
    """Under an ASCII locale, a non-ASCII footprint id is read from UTF-8
    inputs and written to the OBJ as UTF-8, with ``\\n`` line ends."""
    fps = [Footprint("Bâti-1", "T", rectangle_ring(0, 0, 10, 12))]
    doc = json.dumps(json.loads(footprints_to_geojson(fps)), ensure_ascii=False)
    (tmp_path / "fp.geojson").write_bytes(doc.encode("utf-8"))
    (tmp_path / "h.csv").write_bytes("id,type_label,height_m\nBâti-1,T,6.000\n".encode("utf-8"))
    src = Path(popvol.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    result = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "popvol.cli", "model3d",
         "--footprints", str(tmp_path / "fp.geojson"), "--heights", str(tmp_path / "h.csv"),
         "--out", str(tmp_path / "model.obj")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    obj = (tmp_path / "model.obj").read_bytes()
    assert "o Bâti-1\n".encode("utf-8") in obj
    assert b"\r" not in obj


def test_text_utf8_cannot_hold_is_typed_error(tmp_path, capsys):
    """JSON may escape a lone surrogate, which no UTF-8 output can hold."""
    (tmp_path / "scene.json").write_text(json.dumps({**TINY_SCENE, "prisms": [
        {**TINY_SCENE["prisms"][0], "id": "B\ud800"}
    ]}))
    assert main([
        "synth", "--scene", str(tmp_path / "scene.json"), "--out-dsm", str(tmp_path / "dsm.asc"),
        "--out-heights", str(tmp_path / "h.csv"),
    ]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / 'h.csv'}: 'utf-8' codec can't encode character "
        "'\\ud800' in position 24: surrogates not allowed\n"
    )


def test_non_utf8_input_is_typed_error(tmp_path, capsys):
    text = write_ascii_grid(make_grid([[1.0, 2.0], [3.0, 4.0]])).encode("utf-8")
    at = text.index(b"\n1") + 1
    (tmp_path / "dsm.asc").write_bytes(text[:at] + b"\xff" + text[at:])
    assert main(["dtm", "--dsm", str(tmp_path / "dsm.asc"),
                 "--out-dtm", str(tmp_path / "dtm.asc")]) == 2
    assert capsys.readouterr().err == (
        f"error: input file {tmp_path / 'dsm.asc'} is not UTF-8: "
        f"invalid start byte at byte {at}\n"
    )
    assert not (tmp_path / "dtm.asc").exists()


_GRID_HEADER = b"ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
_GRID = _GRID_HEADER + b"1 2\n3 4\n"


@pytest.mark.parametrize("command", ["dtm", "estimate", "run"])
@pytest.mark.parametrize("data,message", [
    (b"", "line 1: incomplete header"),
    (_GRID.replace(b"ncols 2", b"ncols 2\xff"),
     "input file {path} is not UTF-8: invalid start byte at byte 7"),
    (_GRID.replace(b"3 4", b"3 \xff4"),
     "input file {path} is not UTF-8: invalid start byte at byte 76"),
    (_GRID.replace(b"ncols 2", b"ncols x") + b"\xc3",
     "input file {path} is not UTF-8: unexpected end of data at byte 78"),
    (_GRID.replace(b"3 4", "3 \uff14".encode()), "line 8: non-ASCII character '\uff14'"),
    (_GRID.replace(b"ncols 2", b"ncols x").replace(b"3 4", "3 4\u00e9".encode()),
     "line 8: non-ASCII character '\u00e9'"),
    (_GRID.replace(b"3 4", "3\u30004".encode()), "line 8: non-ASCII character '\\u3000'"),
    (b"\xef\xbb\xbf" + _GRID, "line 1: non-ASCII character '\\ufeff'"),
    (_GRID_HEADER + b"1\x1c2\x1d3\x1e4\x1f", None),
    (b"ncols 2\x1cnrows 2\x1dxllcorner 0\x1eyllcorner 0\x0ccellsize 1\x0bNODATA_value -9999\r\n"
     b"1\x1f2\x1c3 oops\n", "line 8: non-numeric value token 'oops'"),
    (_GRID_HEADER + b"1 2\x1f3\x1f4 5\n", "line 7: too many values: expected 4"),
    (_GRID_HEADER + b"1 2\n3\n", "line 8: too few values: expected 4, got 3"),
    (_GRID_HEADER + b"1 2\n3 4 5\n", "line 8: too many values: expected 4"),
    (_GRID.replace(b"ncols 2", b"ncols 1000").replace(b"nrows 2", b"nrows 1000"),
     "line 8: too few values: expected 1000000, the text holds at most 42"),
    # the text of \r\n line ends, as a text-mode read gives it, holds fewer
    (_GRID.replace(b"ncols 2", b"ncols 30").replace(b"\n", b"\r\n").replace(b"3 4", b"3 x"),
     "line 8: too few values: expected 60, the text holds at most 40"),
], ids=[
    "empty", "not-utf8-header", "not-utf8-body", "not-utf8-after-a-bad-header", "non-ascii",
    "non-ascii-after-a-bad-header", "non-ascii-space", "bom", "x1c-x1f-separators",
    "x1c-x1e-line-ends", "x1f-no-line-end", "too-few", "too-many", "claims-more",
    "claims-more-crlf",
])
def test_every_grid_reading_command_reports_a_bad_dsm_in_one_line(
    tmp_path, capsys, monkeypatch, command, data, message
):
    """The mapped read of ``dtm``, ``estimate`` and ``run`` gives the message
    of the text read: a file that is not UTF-8 says so before any grid error,
    a non-ASCII character comes first, and the characters that ``str.split``
    and ``str.splitlines`` cut at, not the fewer that the bytes methods do,
    separate values and end lines. A DSM of \\x1c to \\x1f separators is
    read as the plain one is."""
    (tmp_path / "dsm.asc").write_bytes(data)
    (tmp_path / "plain.asc").write_bytes(_GRID)
    (tmp_path / "fp.geojson").write_text('{"type": "FeatureCollection", "features": []}')
    (tmp_path / "config.json").write_text(
        json.dumps({"dsm": "dsm.asc", "footprints": "fp.geojson", "out_dir": "out"})
    )
    argv = {
        "dtm": ["dtm", "--dsm", "dsm.asc", "--out-dtm", "out/dtm.asc"],
        "estimate": ["estimate", "--dsm", "dsm.asc", "--dtm", "plain.asc",
                     "--footprints", "fp.geojson", "--out-heights", "out/heights.csv",
                     "--out-estimates", "out/estimates.csv"],
        "run": ["run", "--config", "config.json"],
    }[command]
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    err = capsys.readouterr().err
    if message is None:
        assert (rc, err) == (0, "")
        assert popvol.cli._read_grid("dsm.asc") == read_ascii_grid(_GRID)
    else:
        assert (rc, err) == (2, f"error: {message.format(path='dsm.asc')}\n")
        assert not Path("out").exists()


_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"


@pytest.mark.parametrize(
    "argv,outputs,message",
    [
        (["run", "--config", "deep.json"], ["out"], "invalid config JSON in {path}: " + _DEEP),
        (["amenities", "--osm", "site.osm", "--rules", "deep.json", "--config", "query.json",
          "--out-records", "records.csv", "--out-summary", "summary.csv"],
         ["records.csv", "summary.csv"], "invalid rules JSON: " + _DEEP),
        (["synth", "--scene", "deep.json", "--out-dsm", "dsm.asc",
          "--out-footprints", "fp.geojson"], ["dsm.asc", "fp.geojson"],
         "invalid scene JSON: " + _DEEP),
        (["model3d", "--footprints", "deep.json", "--heights", "h.csv", "--out", "model.obj"],
         ["model.obj"], "invalid JSON: " + _DEEP),
    ],
    ids=["run", "amenities", "synth", "model3d"],
)
def test_deeply_nested_json_is_typed_error(tmp_path, capsys, monkeypatch, argv, outputs, message):
    """JSON nested deeper than the decoder's recursion limit, or with an
    integer longer than Python's digit limit, is a typed error, not a
    ``RecursionError`` or ``ValueError`` traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "site.osm").write_text(OSM_FIXTURE)
    (tmp_path / "query.json").write_text(json.dumps(AMENITY_QUERY))
    (tmp_path / "h.csv").write_text("id,type_label,height_m\nB1,T,6.000\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message.format(path='deep.json')}\n"
    for name in outputs:
        assert not (tmp_path / name).exists()

    # past the 4,300-digit limit; CPython's wording of it varies by version
    (tmp_path / "deep.json").write_text("[" + "1" * 4_301 + "]")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message.format(path='deep.json').removesuffix(_DEEP)}")
    assert err.count("\n") == 1 and err.endswith("\n")
    for name in outputs:
        assert not (tmp_path / name).exists()


def _tree(root: Path) -> dict:
    """The bytes of every file under ``root``, by path."""
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "argv,message",
    [
        (["run", "--config", "dup.json"], "invalid config JSON in dup.json: duplicate key 'dsm'"),
        (["run", "--config", "pub.json"],
         "invalid published_reference JSON in dup.json: duplicate key 'dsm'"),
        (["amenities", "--osm", "site.osm", "--rules", "dup.json", "--config", "query.json",
          "--out-records", "records.csv", "--out-summary", "summary.csv"],
         "invalid rules JSON: duplicate key 'dsm'"),
        (["synth", "--scene", "dup.json", "--out-dsm", "dsm.asc"],
         "invalid scene JSON: duplicate key 'dsm'"),
        (["model3d", "--footprints", "dup.json", "--heights", "h.csv", "--out", "model.obj"],
         "invalid JSON: duplicate key 'dsm'"),
    ],
    ids=["config", "published_reference", "rules", "scene", "footprints"],
)
def test_a_repeated_json_key_is_typed_error(tmp_path, capsys, monkeypatch, argv, message):
    """A key twice in one object, here an inner one, is an error in every
    JSON input, not the last value silently kept; nothing is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dup.json").write_text('{"a": {"dsm": "x", "b": 1, "dsm": "y"}, "c": 2}')
    (tmp_path / "pub.json").write_text(json.dumps({
        "dsm": "h.csv", "footprints": "h.csv", "out_dir": "out",
        "published_reference": "dup.json",
    }))
    (tmp_path / "site.osm").write_text(OSM_FIXTURE)
    (tmp_path / "query.json").write_text(json.dumps(AMENITY_QUERY))
    (tmp_path / "h.csv").write_text("id,type_label,height_m\nB1,T,6.000\n")
    before = _tree(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "content,message",
    [
        ("[1, 2]", "published_reference {path} must be a JSON object"),
        ('{"unit_diff_pct": {"TOTAL": "x"}}',
         "published_reference unit_diff_pct 'TOTAL' must be a finite number, got 'x'"),
        ('{"persons": {"TypeA": NaN}}',
         "published_reference persons 'TypeA' must be a finite number, got nan"),
        ('{"persons": [3]}', "published_reference 'persons' must be an object of label: number"),
        ('{"unit_diff_pct": 4}',
         "published_reference 'unit_diff_pct' must be an object of label: number"),
        ("{", "invalid published_reference JSON in {path}: Expecting property name enclosed "
              "in double quotes: line 1 column 2 (char 1)"),
    ],
)
def test_bad_published_reference_is_typed_error(tmp_path, capsys, content, message):
    for name in ("dsm.asc", "fp.geojson"):
        (tmp_path / name).write_text("never read\n")
    (tmp_path / "pub.json").write_text(content)
    config = {"dsm": "dsm.asc", "footprints": "fp.geojson", "out_dir": "out",
              "published_reference": "pub.json"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message.format(path=tmp_path / 'pub.json')}\n"
    assert not (tmp_path / "out").exists()


def test_run_center_out_of_range_is_typed_error(tmp_path, capsys):
    config = _write_run_config(tmp_path)
    doc = json.loads(config.read_text())
    config.write_text(json.dumps({**doc, "center_lat": 123}))
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: center: coordinates (123, 72.5) out of range\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra,message",
    [
        ({"center_lon": -200}, "center: coordinates (23.0, -200) out of range"),
        ({"radius_m": -1}, "radius_m must be a finite number >= 0, got -1"),
    ],
)
def test_run_checks_the_amenity_center_before_any_output(tmp_path, capsys, extra, message):
    config = _write_run_config(tmp_path)
    config.write_text(json.dumps({**json.loads(config.read_text()), **extra}))
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["osm", "rules", "center_lat", "center_lon", "radius_m"])
def test_run_refuses_a_partial_amenity_group(tmp_path, capsys, key):
    """With ``osm`` or ``rules`` set, every key of the amenity stage is
    required: a missing one is an error before any output, not a stage
    silently skipped."""
    config = _write_run_config(tmp_path)
    doc = json.loads(config.read_text())
    del doc[key]
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: config is missing required key {key!r}\n"
    assert not (tmp_path / "out").exists()


def test_run_skips_amenities_given_only_the_center(tmp_path):
    """The center keys alone, which a config shared with the ``amenities``
    subcommand holds, leave the stage out."""
    config = _write_run_config(tmp_path)
    doc = json.loads(config.read_text())
    del doc["osm"], doc["rules"]
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["stages"]["amenities"] == {"status": "skipped"}


@pytest.mark.parametrize(
    "key", ["dsm", "footprints", "ground_truth", "osm", "rules", "published_reference", "out_dir"]
)
def test_run_empty_input_path_is_typed_error(tmp_path, capsys, key):
    """A path key set to "" is refused, not read as a stage left out or as
    a key that is missing."""
    config = _write_run_config(tmp_path)
    config.write_text(json.dumps({**json.loads(config.read_text()), key: ""}))
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: config key {key!r} is an empty path\n"
    assert not (tmp_path / "out").exists()


def _demo_argv(site: Path, out: Path) -> dict:
    """A working argv for each subcommand, by flag: inputs from the demo
    copy in ``site``, every output under ``out``."""
    return {
        "dtm": {"--dsm": site / "out" / "dsm.asc", "--out-dtm": out / "dtm.asc",
                "--out-mask": out / "mask.asc", "--config": site / "config.json"},
        "estimate": {"--dsm": site / "out" / "dsm.asc", "--dtm": site / "out" / "dtm.asc",
                     "--footprints": site / "out" / "footprints.geojson",
                     "--config": site / "config.json", "--out-heights": out / "heights.csv",
                     "--out-estimates": out / "estimates.csv"},
        "validate": {"--estimates": site / "out" / "estimates.csv",
                     "--ground-truth": site / "ground_truth.csv", "--out": out / "validation.csv"},
        "amenities": {"--osm": site / "site.osm", "--rules": site / "rules.json",
                      "--config": site / "config.json", "--out-records": out / "amenities.csv",
                      "--out-summary": out / "amenities_summary.csv"},
        "model3d": {"--footprints": site / "out" / "footprints.geojson",
                    "--heights": site / "out" / "heights.csv", "--out": out / "model.obj",
                    "--config": site / "config.json"},
        "synth": {"--scene": site / "scene.json", "--out-dsm": out / "dsm.asc",
                  "--out-truth-dtm": out / "truth.asc", "--out-heights": out / "heights.csv",
                  "--out-footprints": out / "footprints.geojson"},
        "run": {"--config": site / "config.json", "--out-dir": out},
    }


@pytest.mark.parametrize(
    "command,flag",
    [(command, flag) for command, flags in _demo_argv(Path(), Path()).items() for flag in flags],
)
def test_an_empty_path_flag_is_refused(tmp_path, capsys, command, flag):
    """Every flag names a file or directory: an empty one is an error before
    anything is read or written, not a flag left out. The config's out_dir
    points into ``out`` too, where a ``run --out-dir ""`` would write."""
    site, out = tmp_path / "demo", tmp_path / "out"
    shutil.copytree(DEMO, site)
    cfg = json.loads((site / "config.json").read_text())
    (site / "config.json").write_text(json.dumps({**cfg, "out_dir": str(out)}))
    flags = {**_demo_argv(site, out)[command], flag: ""}
    assert main([command, *itertools.chain.from_iterable(
        (name, str(value)) for name, value in flags.items()
    )]) == 2
    assert capsys.readouterr() == ("", f"error: {flag} is an empty path\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command,first,second",
    [
        (command, *pair)
        for command, flags in _demo_argv(Path(), Path()).items()
        for pair in itertools.combinations(flags, 2)
        if any(flag.startswith("--out") for flag in pair)
    ],
)
@pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
def test_two_output_flags_naming_one_file_are_refused(
    tmp_path, capsys, command, first, second, exists
):
    """Two flags of one command that resolve to one file, at least one of
    them an output (``--out`` or ``--out-*``), are an error before anything
    is read or written: every other input is missing and the second flag
    spells the path another way. A new file is not created; one already
    there keeps its bytes."""
    out, same = tmp_path / "out", tmp_path / "same"
    if exists:
        same.write_bytes(b"an input\n")
    flags = {flag: tmp_path / "missing" for flag in _demo_argv(Path(), Path())[command]}
    flags.update({flag: out / flag for flag in flags if flag.startswith("--out")})
    flags[first], flags[second] = same, tmp_path / "sub" / ".." / "same"
    assert main([command, *itertools.chain.from_iterable(
        (name, str(value)) for name, value in flags.items()
    )]) == 2
    assert capsys.readouterr() == ("", f"error: {first} and {second} name the same file\n")
    assert not out.exists()
    if exists:
        assert same.read_bytes() == b"an input\n"
    else:
        assert not same.exists()


def test_an_output_hard_linked_to_an_input_is_refused(tmp_path, capsys):
    """A hard link is the same file under another name: writing the DTM to
    it would replace the DSM."""
    dsm, link = tmp_path / "dsm.asc", tmp_path / "link.asc"
    shutil.copyfile(DEMO / "out" / "dsm.asc", dsm)
    os.link(dsm, link)
    assert main(["dtm", "--dsm", str(dsm), "--out-dtm", str(link)]) == 2
    assert capsys.readouterr() == ("", "error: --dsm and --out-dtm name the same file\n")
    assert dsm.read_bytes() == (DEMO / "out" / "dsm.asc").read_bytes()


@pytest.mark.parametrize("name,key", [("dtm.asc", "dsm"), ("summary.json", "--config")])
def test_run_refuses_an_input_that_is_one_of_its_outputs(tmp_path, capsys, name, key):
    """A DSM that is the run's own DTM (a rerun would read the DTM as the
    DSM), or a config that is its summary, is an error before any output:
    every file keeps its bytes. The demo's output directory holds both."""
    site = tmp_path / "demo"
    shutil.copytree(DEMO, site)
    if key == "dsm":
        config, what = site / "config.json", "config key 'dsm'"
        cfg = json.loads(config.read_text())
        del cfg["ground_truth"]
        cfg["dsm"] = "out/dtm.asc"
    else:
        config, what = site / "out" / "summary.json", "--config"
        cfg = {"dsm": "dsm.asc", "footprints": "footprints.geojson", "out_dir": "."}
    config.write_text(json.dumps(cfg))
    before = _tree(site)
    assert main(["run", "--config", str(config)]) == 2
    target = site / "out" / name
    assert capsys.readouterr() == (
        "", f"error: {what}: {target} would be overwritten by this run's {target}\n"
    )
    assert _tree(site) == before


def test_integer_keys_written_as_integers(tmp_path):
    """``min_cells`` and ``initial_window`` given as 500.0 and 3.0 write the
    same bytes as 500 and 3: a building with too few cells reads "needs at
    least 500", not 500.0. The config leaves ground truth out, so both TypeC
    buildings (288 cells each) may be excluded."""
    written = []
    for min_cells, initial_window in ((500.0, 3.0), (500, 3)):
        site, out = tmp_path / f"demo_{min_cells}", tmp_path / f"out_{min_cells}"
        shutil.copytree(DEMO, site)
        cfg = json.loads((site / "config.json").read_text())
        cfg.update(min_cells=min_cells, initial_window=initial_window)
        del cfg["ground_truth"]
        (site / "config.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(site / "config.json"), "--out-dir", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert written[0] == written[1]
    assert b'needs at least 500"' in written[1]["estimates.csv"]


@pytest.mark.parametrize(
    "extra,message",
    [
        ({"initial_window": 3.5}, "initial_window must be an odd integer >= 3, got 3.5"),
        ({"max_window_m": 2.0},
         "max_window_m (2.0) smaller than the initial window (3 cells x 1.0 m)"),
    ],
    ids=["fractional_initial_window", "max_window_below_the_first_window"],
)
def test_run_checks_the_filter_keys_before_any_output(tmp_path, capsys, extra, message):
    """The filter keys are checked against the DSM's cell size before the
    output directory is made."""
    config = _write_run_config(tmp_path)
    config.write_text(json.dumps({**json.loads(config.read_text()), **extra}))
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["dtm", "run"])
def test_a_bad_filter_key_is_refused_before_the_dsm_is_read(tmp_path, capsys, command):
    """The DSM's header is malformed too; the filter key is named first."""
    (tmp_path / "dsm.asc").write_text("ncols 2\nnrows x\n")
    (tmp_path / "fp.geojson").write_text('{"type": "FeatureCollection", "features": []}')
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"slope": -1}))
    argv = ["dtm", "--dsm", str(tmp_path / "dsm.asc"), "--out-dtm", str(tmp_path / "out" / "dtm.asc")]
    if command == "run":
        config.write_text(json.dumps(
            {"slope": -1, "dsm": "dsm.asc", "footprints": "fp.geojson", "out_dir": "out"}
        ))
        argv = ["run"]
    assert main(argv + ["--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: slope must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "query,message",
    [
        ({"radius_m": float("nan")}, "config key 'radius_m' must be a finite number, got nan"),
        ({"radius_m": -0.5}, "radius_m must be a finite number >= 0, got -0.5"),
        ({"center_lat": float("nan")}, "config key 'center_lat' must be a finite number, got nan"),
        ({"center_lat": 123}, "center: coordinates (123, 72.5) out of range"),
        ({"center_lon": 180.5}, "center: coordinates (23.0, 180.5) out of range"),
        ({"center_lat": None}, "config is missing required key 'center_lat'"),
    ],
)
def test_bad_amenity_center_or_radius_is_typed_error(tmp_path, capsys, query, message):
    (tmp_path / "site.osm").write_text(OSM_FIXTURE)
    (tmp_path / "rules.json").write_text(RULES_JSON)
    (tmp_path / "config.json").write_text(json.dumps({**AMENITY_QUERY, **query}))
    assert main(amenities_argv(tmp_path, tmp_path / "config.json")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "records.csv").exists()


@pytest.mark.parametrize(
    "height,message",
    [
        ("inf", "building 'B1': extrusion height inf is not finite"),
        ("nan", "building 'B1': extrusion height nan is not finite"),
    ],
)
def test_non_finite_extrusion_is_typed_error(tmp_path, capsys, height, message):
    fps = [Footprint("B1", "T", rectangle_ring(0, 0, 10, 12))]
    (tmp_path / "fp.geojson").write_text(footprints_to_geojson(fps))
    (tmp_path / "h.csv").write_text(f"id,type_label,height_m\nB1,T,{height}\n")
    assert main([
        "model3d", "--footprints", str(tmp_path / "fp.geojson"),
        "--heights", str(tmp_path / "h.csv"), "--out", str(tmp_path / "model.obj"),
    ]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "model.obj").exists()


def test_parser_has_no_value_flags():
    """Every parameter value is read from the config and checked there: no
    flag converts its value with ``type=``, so none can bypass those checks."""
    parser = popvol.cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = {"parser": parser, **subparsers.choices}
    for name, command in commands.items():
        for action in command._actions:
            assert action.type is None, (name, action.option_strings)
    assert len(commands) == 8


@pytest.mark.parametrize(
    "rows,message",
    [
        ("B1,T,tall\n", "heights CSV line 2, column 'height_m': expected a number, got 'tall'"),
        # float reads it as 12.5; a grid cell refuses it
        ("B1,T,1_2.5\n", "heights CSV line 2, column 'height_m': expected a number, got '1_2.5'"),
        # a second row would otherwise set B1's extrusion height
        ("B1,T,6.000\nB2,T,9.000\nB1,T,40.000\n", "heights CSV line 4: duplicate id 'B1'"),
    ],
    ids=["bad_value", "digit_group", "repeated_id"],
)
def test_bad_heights_csv_value_is_typed_error(tmp_path, capsys, rows, message):
    fps = [Footprint("B1", "T", rectangle_ring(0, 0, 10, 12))]
    (tmp_path / "fp.geojson").write_text(footprints_to_geojson(fps))
    (tmp_path / "h.csv").write_text("id,type_label,height_m\n" + rows)
    assert main([
        "model3d", "--footprints", str(tmp_path / "fp.geojson"),
        "--heights", str(tmp_path / "h.csv"), "--out", str(tmp_path / "model.obj"),
    ]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "model.obj").exists()


def test_roof_elevation_past_the_float_range_is_typed_error(tmp_path, capsys):
    """A finite height on a finite base whose sum overflows names the building,
    instead of an inf vertex failing in the OBJ writer."""
    fps = [Footprint("A1", "T", rectangle_ring(0, 0, 10, 12))]
    (tmp_path / "fp.geojson").write_text(footprints_to_geojson(fps))
    (tmp_path / "h.csv").write_text("id,height_m\nA1,1e308\n")
    (tmp_path / "config.json").write_text('{"base_elevation_m": 1e308}')
    assert main([
        "model3d", "--config", str(tmp_path / "config.json"),
        "--footprints", str(tmp_path / "fp.geojson"),
        "--heights", str(tmp_path / "h.csv"), "--out", str(tmp_path / "model.obj"),
    ]) == 2
    assert capsys.readouterr().err == (
        "error: building 'A1': roof elevation 1e+308 + 1e+308 is not finite\n"
    )
    assert not (tmp_path / "model.obj").exists()


TINY_SCENE = {
    "georef": {"ncols": 40, "nrows": 30, "xll": 0.0, "yll": 0.0, "cellsize": 1.0},
    "terrain": {"origin_elev": 50.0},
    "prisms": [
        {"id": "B1", "type_label": "TypeA", "ring": [[5, 5], [15, 5], [15, 15], [5, 15]],
         "height_m": 9.0, "unit_area_m2": 150.0, "units_per_floor": 4},
        {"id": "B2", "type_label": "TypeB", "ring": [[22, 8], [32, 8], [32, 20], [22, 20]],
         "height_m": 6.0, "unit_area_m2": 52.0, "units_per_floor": 2},
    ],
}
TINY_CONFIG = {
    "dsm": "dsm.asc", "footprints": "fp.geojson", "ground_truth": "gt.csv",
    "osm": "site.osm", "rules": "rules.json", "published_reference": "pub.json",
    "center_lat": 23.0, "center_lon": 72.5, "radius_m": 2000.0, "out_dir": "out",
}
INPUT_NAMES = ("dsm.asc", "fp.geojson", "gt.csv", "site.osm", "rules.json", "pub.json")

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(10**400)])
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_non_strings = _json_values.filter(lambda v: not isinstance(v, str))
# strings stay relative names inside the site directory: the inputs, their
# cross-wirings, and names that do not exist
_input_paths = st.sampled_from(INPUT_NAMES) | st.text(alphabet="ab.\0", max_size=6) | _non_strings
_out_dirs = st.text(alphabet="ab\0", min_size=1, max_size=3) | _non_strings
_numbers = st.floats(-200, 200) | st.integers(-200, 200) | _json_values
_tables = _json_values | st.dictionaries(
    st.sampled_from(["TypeA", "TypeB", "TOTAL"]), _numbers, min_size=1, max_size=3
)
_reference = st.fixed_dictionaries({}, optional={"unit_diff_pct": _tables, "persons": _tables})
# the reference shape twice, so that labels the run knows are drawn often
_published = st.one_of(
    st.text(max_size=12), _json_values.map(json.dumps),
    _reference.map(json.dumps), _reference.map(json.dumps),
)
_KEY_VALUES = {
    **{k: _input_paths for k in popvol.cli.INPUT_KEYS},
    "out_dir": _out_dirs,
    **{k: _numbers for k in ("center_lat", "center_lon", "radius_m", "base_elevation_m")},
}
# a few keys per example, so that most runs get past the config checks
_overrides = st.lists(st.sampled_from(sorted(_KEY_VALUES)), max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _KEY_VALUES[k] for k in keys})
)


@pytest.fixture(scope="module")
def tiny_site(tmp_path_factory):
    site = tmp_path_factory.mktemp("tiny_site")
    (site / "scene.json").write_text(json.dumps(TINY_SCENE))
    assert main([
        "synth", "--scene", str(site / "scene.json"),
        "--out-dsm", str(site / "dsm.asc"), "--out-footprints", str(site / "fp.geojson"),
    ]) == 0
    (site / "gt.csv").write_text("type_label,units\nTypeA,12\nTypeB,4\n")
    (site / "site.osm").write_text(OSM_FIXTURE)
    (site / "rules.json").write_text(RULES_JSON)
    return site


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(overrides=_overrides, published=_published)
def test_run_config_values_exit_0_or_one_line_exit_2(tiny_site, overrides, published):
    (tiny_site / "pub.json").write_text(published)
    (tiny_site / "config.json").write_text(json.dumps({**TINY_CONFIG, **overrides}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["run", "--config", str(tiny_site / "config.json")])
    lines = err.getvalue().splitlines()
    assert rc == 0 or (rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")), (rc, lines)


@pytest.mark.parametrize(
    "estimates,ground_truth,message",
    [
        (None, "x\n1\n", "ground-truth CSV needs columns: type_label,units"),
        (None, "type_label,units\nTypeA\n",
         "ground-truth CSV line 2, column 'units': expected an integer >= 0, got ''"),
        (None, "type_label,units\nTypeA,12\nTypeB,-3\n",
         "ground-truth CSV line 3, column 'units': expected an integer >= 0, got '-3'"),
        # int reads these as 10 and 5; a grid cell refuses them
        (None, "type_label,units\nTypeA,1_0\n",
         "ground-truth CSV line 2, column 'units': expected an integer >= 0, got '1_0'"),
        (None, "type_label,units\nTypeA,12\nTypeB,\u0665\n",
         "ground-truth CSV line 3, column 'units': expected an integer >= 0, got '\u0665'"),
        (popvol.cli.ESTIMATES_HEADER + "\nB1,TypeA,9.000,3,4,12,150.000,\uff14\uff18,\n", None,
         "estimates CSV line 2, column 'persons': expected a number, got '\uff14\uff18'"),
        ("x\n1\n", None, "estimates CSV needs columns: " + popvol.cli.ESTIMATES_HEADER),
        (popvol.cli.ESTIMATES_HEADER + "\nB1,TypeA\n", None,
         "estimates CSV line 2, column 'floors': expected an integer, got ''"),
        (popvol.cli.ESTIMATES_HEADER + "\nB1,TypeA,9.000,3,4,12,150.000,many,\n", None,
         "estimates CSV line 2, column 'persons': expected a number, got 'many'"),
        (popvol.cli.ESTIMATES_HEADER + "\nB1,TypeA,9.000,3,4,12,150.000,48.000,"
         "\nB1,TypeA,9.000,3,4,12,150.000,48.000,\n", None,
         "estimates CSV line 3: duplicate id 'B1'"),
        # the quotient overflows: in the division at 401 digits, in the "* 100" at 309
        *((popvol.cli.ESTIMATES_HEADER + f"\nB1,TypeA,9.000,3,4,{'1' * n},150.000,48.000,\n",
           "type_label,units\nTypeA,10\n", "percent difference of the estimated units against "
           "10 ground-truth units overflows the float range") for n in (401, 309)),
    ],
)
def test_bad_validate_csvs_are_typed_errors(tmp_path, capsys, estimates, ground_truth, message):
    (tmp_path / "e.csv").write_text(
        estimates or popvol.cli.ESTIMATES_HEADER + "\nB1,TypeA,9.000,3,4,12,150.000,48.000,\n"
    )
    (tmp_path / "gt.csv").write_text(ground_truth or "type_label,units\nTypeA,12\n")
    assert main([
        "validate", "--estimates", str(tmp_path / "e.csv"),
        "--ground-truth", str(tmp_path / "gt.csv"), "--out", str(tmp_path / "report.csv"),
    ]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "report.csv").exists()


# over the csv module's field limit of 131,072 characters
_LONG_ROW = "B9," + "x" * 140_000 + "\n"


@pytest.mark.parametrize(
    "argv,name,old,new,message",
    [
        (["dtm", "--dsm", "out/dsm.asc", "--out-dtm", "new.asc"],
         "out/dsm.asc", "ncols 180\nnrows 150", "ncols 100000\nnrows 100000",
         "line 156: too few values: expected 10000000000, the text holds at most 245460"),
        (["estimate", "--dsm", "out/dsm.asc", "--dtm", "out/dtm.asc",
          "--footprints", "out/footprints.geojson", "--out-heights", "h.csv",
          "--out-estimates", "e.csv"],
         "out/footprints.geojson", '"unit_area_m2": 150.0', '"unit_area_m2": "150"',
         "feature 'A1': unit_area_m2 must be a finite number, got '150'"),
        (["validate", "--estimates", "out/estimates.csv", "--ground-truth", "ground_truth.csv",
          "--out", "v.csv"],
         "out/estimates.csv", None, _LONG_ROW,
         "estimates CSV line 8: field larger than field limit (131072)"),
        (["amenities", "--osm", "site.osm", "--rules", "rules.json", "--config", "config.json",
          "--out-records", "a.csv", "--out-summary", "s.csv"],
         "config.json", '"radius_m": 2000.0', '"radius_m": "2000"',
         "config key 'radius_m' must be a finite number, got '2000'"),
        (["model3d", "--footprints", "out/footprints.geojson", "--heights", "out/heights.csv",
          "--out", "m.obj"],
         "out/heights.csv", None, _LONG_ROW,
         "heights CSV line 8: field larger than field limit (131072)"),
        (["synth", "--scene", "scene.json", "--out-dsm", "s.asc"],
         "scene.json", '"seed": 7', '"seed": 7.5', "scene 'seed' must be a whole number, got 7.5"),
        (["run", "--config", "config.json", "--out-dir", "run_out"],
         "ground_truth.csv", None, _LONG_ROW,
         "ground-truth CSV line 5: field larger than field limit (131072)"),
        (["dtm", "--dsm", "out/dsm.asc", "--out-dtm", "new.asc"],
         "out/dsm.asc", "cellsize 1\n", "cellsize 5e-324\n",
         "max_window_m (35.0) is out of reach: windows of 3 cells x 5e-324 m leave the float "
         "range first"),
        (["run", "--config", "config.json", "--out-dir", "run_out"],
         "config.json", '"radius_m": 2000.0', '"radius_m": 2000.0, "max_window_m": 1e308',
         "max_window_m (1e+308) is out of reach: windows of 3 cells x 1.0 m leave the float "
         "range first"),
    ],
    ids=["dtm", "estimate", "validate", "amenities", "model3d", "synth", "run", "dtm_window",
         "run_window"],
)
def test_each_subcommand_reports_bad_input_in_one_line(
    tmp_path, capsys, monkeypatch, argv, name, old, new, message
):
    """One input per subcommand that once got past the error boundary: a
    traceback, a silently accepted value or a MemoryError. The demo file
    ``name`` has ``old`` replaced by ``new``, or ``new`` appended."""
    shutil.copytree(DEMO, tmp_path / "demo")
    monkeypatch.chdir(tmp_path / "demo")
    path = Path(name)
    text = path.read_text()
    assert old is None or old in text
    path.write_text(text + new if old is None else text.replace(old, new, 1))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
