import argparse
import contextlib
import io
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popvol
import popvol.cli
from popvol import read_ascii_grid, write_ascii_grid
from popvol.cli import footprints_to_geojson, main, read_estimates_csv
from popvol.footprints import Footprint
from popvol.grid import Grid, GridGeoref
from popvol.synth import rectangle_ring

from conftest import ExitWhenPickled, assert_no_children, in_child, make_grid, split_into

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
    dsm = read_ascii_grid((tmp_path / "dsm.asc").read_text())
    assert dsm.georef.ncols == 160
    heights = (tmp_path / "true_heights.csv").read_text().splitlines()
    assert heights[0] == "id,type_label,height_m"
    assert len(heights) == 6
    fps = json.loads((tmp_path / "fp.geojson").read_text())
    assert len(fps["features"]) == 5


def test_dtm_flat_fixture_identity(tmp_path):
    flat = make_grid(np.full((30, 30), 12.5))
    (tmp_path / "flat.asc").write_text(write_ascii_grid(flat))
    rc = main([
        "dtm", "--dsm", str(tmp_path / "flat.asc"),
        "--out-dtm", str(tmp_path / "dtm.asc"),
        "--out-mask", str(tmp_path / "mask.asc"),
    ])
    assert rc == 0
    assert read_ascii_grid((tmp_path / "dtm.asc").read_text()) == flat
    mask = read_ascii_grid((tmp_path / "mask.asc").read_text())
    assert (mask.data == 1.0).all()


def test_dtm_prism_fixture_flags_nonground(tmp_path):
    scene = write_scene(tmp_path)
    main(["synth", "--scene", str(scene), "--out-dsm", str(tmp_path / "dsm.asc")])
    rc = main([
        "dtm", "--dsm", str(tmp_path / "dsm.asc"),
        "--out-dtm", str(tmp_path / "dtm.asc"),
        "--out-mask", str(tmp_path / "mask.asc"),
    ])
    assert rc == 0
    mask = read_ascii_grid((tmp_path / "mask.asc").read_text())
    # the B1 prism interior must be non-ground
    assert (mask.data[110:120, 20:40] == 0.0).all()


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
    dsm = read_ascii_grid((tmp_path / "dsm.asc").read_text())
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
    for name in ("dtm.asc", "ground_mask.asc", "heights.csv", "estimates.csv",
                 "validation.csv", "model.obj", "amenities.csv", "amenities_summary.csv"):
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
        f"B1,TypeA,{b1_height},0,0,0,,0.000,error: building 'B1': needs either "
        "units_per_floor or unit_area_m2",
        "OFF,TypeA,,0,0,0,,0.000,error: footprint 'OFF' selects no raster cells",
    ]


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
    assert not list((tmp_path / "out").glob("amenities*"))


DEMO = Path(__file__).resolve().parents[1] / "demo"


def test_demo_reproduces_committed_outputs(tmp_path):
    _assert_demo_reproduced(tmp_path)


def test_demo_reproduces_committed_outputs_in_bands(tmp_path):
    """Every grid read and written in three row bands (the demo's PMF halo
    covers its grid, so the filter stays one band)."""
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


@pytest.mark.parametrize("key", ["ground_truth", "osm", "rules", "published_reference"])
def test_run_empty_input_path_is_typed_error(tmp_path, capsys, key):
    """An input key set to "" is refused, not read as a stage left out."""
    config = _write_run_config(tmp_path)
    config.write_text(json.dumps({**json.loads(config.read_text()), key: ""}))
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: config key {key!r} is an empty path\n"
    assert not (tmp_path / "out").exists()


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
        # a second row would otherwise set B1's extrusion height
        ("B1,T,6.000\nB2,T,9.000\nB1,T,40.000\n", "heights CSV line 4: duplicate id 'B1'"),
    ],
    ids=["bad_value", "repeated_id"],
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
_input_paths = st.sampled_from(INPUT_NAMES) | st.text(alphabet="ab.", max_size=6) | _non_strings
_out_dirs = st.text(alphabet="ab", min_size=1, max_size=3) | _non_strings
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
        ("x\n1\n", None, "estimates CSV needs columns: " + popvol.cli.ESTIMATES_HEADER),
        (popvol.cli.ESTIMATES_HEADER + "\nB1,TypeA\n", None,
         "estimates CSV line 2, column 'floors': expected an integer, got ''"),
        (popvol.cli.ESTIMATES_HEADER + "\nB1,TypeA,9.000,3,4,12,150.000,many,\n", None,
         "estimates CSV line 2, column 'persons': expected a number, got 'many'"),
        (popvol.cli.ESTIMATES_HEADER + "\nB1,TypeA,9.000,3,4,12,150.000,48.000,"
         "\nB1,TypeA,9.000,3,4,12,150.000,48.000,\n", None,
         "estimates CSV line 3: duplicate id 'B1'"),
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
