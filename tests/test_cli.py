import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import popvol
from popvol import read_ascii_grid, write_ascii_grid
from popvol.cli import footprints_to_geojson, main, read_estimates_csv
from popvol.footprints import Footprint
from popvol.grid import Grid, GridGeoref
from popvol.synth import rectangle_ring

from conftest import make_grid

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


def test_amenities_command(tmp_path):
    (tmp_path / "site.osm").write_text(OSM_FIXTURE)
    (tmp_path / "rules.json").write_text(RULES_JSON)
    rc = main([
        "amenities", "--osm", str(tmp_path / "site.osm"), "--rules", str(tmp_path / "rules.json"),
        "--center-lat", "23.0", "--center-lon", "72.5", "--radius-m", "2000",
        "--out-records", str(tmp_path / "records.csv"),
        "--out-summary", str(tmp_path / "summary.csv"),
    ])
    assert rc == 0
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
        "center_lat": 23.0,
        "center_lon": 72.5,
        "radius_m": 2000.0,
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
    ],
)
def test_non_numeric_config_values_are_typed_errors(tmp_path, capsys, extra, message):
    for name in ("dsm.asc", "fp.geojson"):
        (tmp_path / name).write_text("never read\n")
    config = {"dsm": "dsm.asc", "footprints": "fp.geojson", "out_dir": "out", **extra}
    (tmp_path / "config.json").write_text(json.dumps(config))
    commands = [["run", "--config", str(tmp_path / "config.json")]]
    if not set(extra) & {"slope", "initial_window", "max_window_m"}:
        commands.append([
            "estimate", "--config", str(tmp_path / "config.json"),
            "--dsm", str(tmp_path / "dsm.asc"), "--dtm", str(tmp_path / "dsm.asc"),
            "--footprints", str(tmp_path / "fp.geojson"),
            "--out-heights", str(tmp_path / "h.csv"), "--out-estimates", str(tmp_path / "e.csv"),
        ])
    for argv in commands:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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
    # `run` must produce the same bytes as driving each stage by hand,
    # because the CSVs are the inter-stage contract
    config = _write_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert main([
        "dtm", "--dsm", str(tmp_path / "dsm.asc"), "--out-dtm", str(tmp_path / "s_dtm.asc"),
    ]) == 0
    assert main([
        "estimate", "--dsm", str(tmp_path / "dsm.asc"), "--dtm", str(tmp_path / "s_dtm.asc"),
        "--footprints", str(tmp_path / "fp.geojson"),
        "--out-heights", str(tmp_path / "s_heights.csv"),
        "--out-estimates", str(tmp_path / "s_estimates.csv"),
    ]) == 0
    assert main([
        "model3d", "--footprints", str(tmp_path / "fp.geojson"),
        "--heights", str(tmp_path / "s_heights.csv"), "--out", str(tmp_path / "s_model.obj"),
    ]) == 0
    assert (tmp_path / "s_dtm.asc").read_text() == (out / "dtm.asc").read_text()
    assert (tmp_path / "s_heights.csv").read_text() == (out / "heights.csv").read_text()
    assert (tmp_path / "s_estimates.csv").read_text() == (out / "estimates.csv").read_text()
    assert (tmp_path / "s_model.obj").read_text() == (out / "model.obj").read_text()


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


DEMO = Path(__file__).resolve().parents[1] / "demo"


def test_demo_reproduces_committed_outputs(tmp_path):
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


def test_cli_import_leaves_scipy_unloaded():
    src = Path(popvol.__file__).resolve().parents[1]
    code = "import sys, popvol.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
