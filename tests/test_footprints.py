import json
import math
import random
import re

import numpy as np
import pytest

from popvol import (
    EmptySelectionError,
    Footprint,
    FootprintError,
    GridGeoref,
    InsufficientCoverageError,
    SyntheticScene,
    TerrainModel,
    footprint_area,
    nearest_rank_percentile,
    parse_footprints,
    rasterize_polygon,
    synthesize_dsm,
    write_ascii_grid,
    zonal_height,
)
from popvol.cli import main
from popvol.synth import rectangle_ring

from conftest import cell_set, make_grid


def feature(fid, ring, type_label="Type4", **props):
    properties = {"id": fid, "type_label": type_label, **props}
    return {
        "type": "Feature",
        "properties": properties,
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


def collection(*features_):
    return json.dumps({"type": "FeatureCollection", "features": list(features_)})


SQUARE = [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]


def test_parse_single_square():
    fps = parse_footprints(collection(feature("B1", SQUARE)))
    assert len(fps) == 1
    fp = fps[0]
    assert fp.id == "B1"
    assert fp.type_label == "Type4"
    assert len(fp.ring) == 4  # closing vertex dropped
    assert footprint_area(fp) == 100.0


def test_parse_reads_unit_properties():
    fps = parse_footprints(
        collection(feature("B1", SQUARE, unit_area_m2=43.1, units_per_floor=4))
    )
    assert fps[0].unit_area_m2 == 43.1
    assert fps[0].units_per_floor_override == 4


def test_duplicate_ids_rejected():
    with pytest.raises(FootprintError, match="duplicate"):
        parse_footprints(collection(feature("B1", SQUARE), feature("B1", SQUARE)))


def test_multipolygon_rejected_with_id():
    f = feature("B7", SQUARE)
    f["geometry"]["type"] = "MultiPolygon"
    with pytest.raises(FootprintError, match="B7"):
        parse_footprints(collection(f))


def test_holes_rejected():
    f = feature("B1", SQUARE)
    f["geometry"]["coordinates"] = [SQUARE, [[2, 2], [4, 2], [4, 4], [2, 4], [2, 2]]]
    with pytest.raises(FootprintError, match="holes"):
        parse_footprints(collection(f))


def test_missing_id_rejected():
    f = feature("B1", SQUARE)
    del f["properties"]["id"]
    with pytest.raises(FootprintError, match="missing 'id'"):
        parse_footprints(collection(f))


def test_too_few_vertices_rejected():
    with pytest.raises(FootprintError, match="3 vertices"):
        parse_footprints(collection(feature("B1", [[0, 0], [1, 0], [0, 0]])))


def test_self_intersecting_ring_rejected():
    # edges (6,0)-(0,3) and (4,3)-(0,0) cross; area is nonzero
    crossed = [[0, 0], [6, 0], [0, 3], [4, 3], [0, 0]]
    with pytest.raises(FootprintError, match="self-intersecting"):
        parse_footprints(collection(feature("B1", crossed)))


def test_zero_area_ring_rejected():
    collinear = [[0, 0], [1, 1], [2, 2]]
    with pytest.raises(FootprintError, match="zero area"):
        parse_footprints(collection(feature("B1", collinear)))


def test_invalid_json_rejected():
    with pytest.raises(FootprintError, match="invalid JSON"):
        parse_footprints("{nope")


def _with(f, **changes):
    """``f`` with top-level, properties or geometry entries replaced."""
    f = json.loads(json.dumps(f))
    for key, value in changes.items():
        part = f if key in f else f["properties"] if key in f["properties"] else f["geometry"]
        part[key] = value
    return f


@pytest.mark.parametrize(
    "text,message",
    [
        (json.dumps({"type": "FeatureCollection", "features": {"a": 1}}),
         "'features' must be a list"),
        (collection(feature("B1", SQUARE), 7), "feature #1: not a JSON object"),
        (collection(["B1"]), "feature #0: not a JSON object"),
        (collection(_with(feature("B1", SQUARE), properties=[1])), "feature #0: 'properties'"),
        (collection(_with(feature("B2", SQUARE), geometry="x")), "feature 'B2': 'geometry'"),
        (collection(_with(feature("B3", SQUARE), coordinates={"a": 1})),
         "feature 'B3': 'coordinates' must be a list"),
        (collection(_with(feature("B4", SQUARE), coordinates=[5])),
         "feature 'B4': 'coordinates' must be a list"),
        (collection(feature("B5", [[0, 0], [10], [10, 10], [0, 10]])),
         "feature 'B5': vertex #1 is not an [x, y] pair"),
        (collection(feature("B6", [[0, 0], [10, "a"], [10, 10], [0, 10]])),
         "feature 'B6': vertex #1 is not an [x, y] pair"),
        (collection(feature("B7", [[0, 0], [10, 0], 3, [0, 10]])),
         "feature 'B7': vertex #2 is not an [x, y] pair"),
        (collection(feature("B8", [[0, 0], [10, 0], [10, True], [0, 10]])),
         "feature 'B8': vertex #2 is not an [x, y] pair"),
        (collection(feature("B9", [[0, 0], [float("nan"), 0], [10, 10], [0, 10]])),
         "footprint 'B9': vertex #1 is not finite"),
        (collection(feature("B10", [[0, 0], [10, 0], [10, float("inf")], [0, 10]])),
         "footprint 'B10': vertex #2 is not finite"),
        (collection(feature("B11", SQUARE, unit_area_m2=[43.1])),
         "feature 'B11': unit_area_m2 and units_per_floor must be numbers"),
        (collection(feature("B12", SQUARE, units_per_floor="four")),
         "feature 'B12': unit_area_m2 and units_per_floor must be numbers"),
    ],
)
def test_malformed_features_are_typed_errors(tmp_path, capsys, text, message):
    with pytest.raises(FootprintError, match=re.escape(message)):
        parse_footprints(text)
    (tmp_path / "fp.geojson").write_text(text)
    (tmp_path / "h.csv").write_text("id,height_m\n")
    rc = main([
        "model3d", "--footprints", str(tmp_path / "fp.geojson"),
        "--heights", str(tmp_path / "h.csv"), "--out", str(tmp_path / "model.obj"),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


_NOT_NUMBERS = "feature 'B1': unit_area_m2 and units_per_floor must be numbers"
_BAD_AREA = "footprint 'B1': unit_area_m2 must be finite and > 0"


@pytest.mark.parametrize(
    "props,message",
    [
        ({"units_per_floor": 2.7}, "feature 'B1': units_per_floor must be a whole number, got 2.7"),
        ({"units_per_floor": float("nan")},
         "feature 'B1': units_per_floor must be a whole number, got nan"),
        ({"units_per_floor": True}, _NOT_NUMBERS),
        ({"unit_area_m2": False}, _NOT_NUMBERS),
        ({"unit_area_m2": float("nan")}, _BAD_AREA),
        ({"unit_area_m2": float("inf")}, _BAD_AREA),
        ({"unit_area_m2": float("-inf")}, _BAD_AREA),
        ({"unit_area_m2": 0}, _BAD_AREA),
    ],
    ids=["fractional_units", "nan_units", "boolean_units", "boolean_area",
         "nan_area", "inf_area", "minus_inf_area", "zero_area"],
)
def test_bad_unit_fields_are_typed_errors(tmp_path, capsys, props, message):
    """Through ``parse_footprints`` and through ``estimate``, which stops
    with one error line before it writes anything."""
    text = collection(feature("B1", SQUARE, **props))
    with pytest.raises(FootprintError, match=re.escape(message)):
        parse_footprints(text)
    (tmp_path / "fp.geojson").write_text(text)
    (tmp_path / "flat.asc").write_text(write_ascii_grid(make_grid(np.full((12, 12), 5.0))))
    rc = main([
        "estimate", "--dsm", str(tmp_path / "flat.asc"), "--dtm", str(tmp_path / "flat.asc"),
        "--footprints", str(tmp_path / "fp.geojson"),
        "--out-heights", str(tmp_path / "h.csv"), "--out-estimates", str(tmp_path / "e.csv"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "h.csv").exists()


def test_whole_float_units_per_floor_is_an_integer():
    fp = parse_footprints(collection(feature("B1", SQUARE, units_per_floor=3.0)))[0]
    assert fp.units_per_floor_override == 3 and type(fp.units_per_floor_override) is int


def test_three_dimensional_positions_keep_x_and_y():
    ring = [[0, 0, 5.5], [10, 0, 5.5], [10, 10, 5.5], [0, 10, 5.5]]
    assert parse_footprints(collection(feature("B1", ring)))[0].ring == [
        (0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)
    ]


@pytest.mark.parametrize(
    "width,depth,expected",
    [(30.0, 30.5, 915.0), (19.0, 27.2, 516.8)],
)
def test_rectangle_areas(width, depth, expected):
    fp = Footprint("B", "T", rectangle_ring(0, 0, width, depth))
    assert footprint_area(fp) == pytest.approx(expected, abs=1e-9)


def test_triangle_area():
    fp = Footprint("B", "T", [(0, 0), (1, 0), (0, 1)])
    assert footprint_area(fp) == pytest.approx(0.5)


def test_area_invariant_under_rotation_and_reversal():
    ring = [(0, 0), (12, 1), (15, 9), (6, 14), (-2, 7)]
    base = footprint_area(Footprint("B", "T", ring))
    for shift in range(1, len(ring)):
        rotated = ring[shift:] + ring[:shift]
        assert footprint_area(Footprint("B", "T", rotated)) == pytest.approx(base)
    assert footprint_area(Footprint("B", "T", ring[::-1])) == pytest.approx(base)


def test_rasterize_aligned_square():
    fp = Footprint("B", "T", rectangle_ring(0, 0, 10, 10))
    cells = rasterize_polygon(fp, GridGeoref(20, 20, 0.0, 0.0, 1.0))
    assert len(cells) == 100


def test_rasterize_subcell_square():
    # 0.4 x 0.4 m square centered on the center of cell (row 19, col 0)
    fp = Footprint("B", "T", rectangle_ring(0.3, 0.3, 0.4, 0.4))
    cells = rasterize_polygon(fp, GridGeoref(20, 20, 0.0, 0.0, 1.0))
    assert cell_set(cells) == {(19, 0)}


def test_rasterize_disjoint_polygons_give_disjoint_cells():
    ref = GridGeoref(40, 40, 0.0, 0.0, 1.0)
    a = rasterize_polygon(Footprint("A", "T", rectangle_ring(1, 1, 10, 12)), ref)
    b = rasterize_polygon(Footprint("B", "T", rectangle_ring(13, 1, 9, 12)), ref)
    assert not (cell_set(a) & cell_set(b))


def test_rasterize_off_grid_raises():
    fp = Footprint("B9", "T", rectangle_ring(100, 100, 5, 5))
    with pytest.raises(EmptySelectionError, match="B9"):
        rasterize_polygon(fp, GridGeoref(10, 10, 0.0, 0.0, 1.0))


def _ellipse_ring(rng, n):
    cx, cy = rng.uniform(20, 30), rng.uniform(20, 30)
    a, b = rng.uniform(8, 15), rng.uniform(8, 15)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    return [(cx + a * math.cos(t), cy + b * math.sin(t)) for t in angles]


def test_rasterized_area_converges_to_shoelace_area():
    rng = random.Random(99)
    for _ in range(5):
        ring = _ellipse_ring(rng, rng.randint(6, 10))
        fp = Footprint("C", "T", ring)
        true_area = footprint_area(fp)
        errors = []
        for cellsize in (1.0, 0.25, 0.0625):
            n = int(60 / cellsize)
            cells = rasterize_polygon(fp, GridGeoref(n, n, 0.0, 0.0, cellsize))
            errors.append(abs(len(cells) * cellsize**2 - true_area))
        assert errors[1] <= errors[0]
        assert errors[2] <= errors[1]
        assert errors[2] < 0.01 * true_area


def test_nearest_rank_percentile():
    values = list(range(1, 11))  # 1..10
    assert nearest_rank_percentile(values, 90) == 9.0
    assert nearest_rank_percentile(values, 100) == 10.0
    assert nearest_rank_percentile(values, 0) == 1.0
    assert nearest_rank_percentile([5.0], 50) == 5.0
    assert nearest_rank_percentile(values, 50) == 5.0
    with pytest.raises(ValueError):
        nearest_rank_percentile([], 90)
    with pytest.raises(ValueError):
        nearest_rank_percentile(values, 101)


def test_zonal_height_constant_field():
    ndsm = make_grid(np.full((20, 20), 19.8))
    fp = Footprint("B1", "Type1", rectangle_ring(2, 2, 10, 10))
    rec = zonal_height(ndsm, fp)
    assert rec.height_m == pytest.approx(19.8)
    assert rec.valid_cells == 100
    assert rec.footprint_area_m2 == pytest.approx(100.0)


def test_zonal_height_over_nodata_raises():
    data = np.full((20, 20), 5.0)
    data[2:14, 2:14] = np.nan
    ndsm = make_grid(data)
    fp = Footprint("B2", "T", rectangle_ring(3, 7, 9, 9))
    with pytest.raises(InsufficientCoverageError, match="B2"):
        zonal_height(ndsm, fp)


def test_zonal_height_clamps_negative():
    ndsm = make_grid(np.full((10, 10), -2.0))
    fp = Footprint("B", "T", rectangle_ring(1, 1, 6, 6))
    assert zonal_height(ndsm, fp).height_m == 0.0


def test_zonal_height_noisy_prism():
    ref = GridGeoref(60, 60, 0.0, 0.0, 1.0)
    fp = Footprint("P", "T", rectangle_ring(15, 15, 25, 25))
    scene = SyntheticScene(
        georef=ref,
        terrain=TerrainModel(0.0),
        prisms=[(fp, 19.8)],
        noise_amplitude_m=0.1,
        seed=21,
    )
    dsm = synthesize_dsm(scene).dsm  # terrain is 0, so the surface is the height field
    rec = zonal_height(dsm, fp)
    assert rec.height_m == pytest.approx(19.8, abs=0.1)


def test_zonal_height_offset_property():
    rng = np.random.default_rng(3)
    base = rng.uniform(5, 15, size=(30, 30))
    fp = Footprint("B", "T", rectangle_ring(4, 6, 14, 11))
    for k in (0.5, 3.25, 10.0):
        h0 = zonal_height(make_grid(base), fp).height_m
        h1 = zonal_height(make_grid(base + k), fp).height_m
        assert h1 - h0 == pytest.approx(k, abs=1e-9)
