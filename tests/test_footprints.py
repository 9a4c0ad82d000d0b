import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from popvol import (
    ConfigError,
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
from popvol.footprints import footprints_to_geojson
from popvol.synth import load_scene

from conftest import cell_set, make_grid, rectangle_ring


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


def _exact_meet(p, q, r, s) -> bool:
    """Whether the closed segments pq and rs share a point, in exact arithmetic."""
    p, q, r, s = ((Fraction(x), Fraction(y)) for x, y in (p, q, r, s))
    d, e, w = (q[0] - p[0], q[1] - p[1]), (s[0] - r[0], s[1] - r[1]), (r[0] - p[0], r[1] - p[1])
    den = d[0] * e[1] - d[1] * e[0]
    if den:
        # p + t * d == r + u * e at one point
        t, u = (w[0] * e[1] - w[1] * e[0]) / den, (w[0] * d[1] - w[1] * d[0]) / den
        return 0 <= t <= 1 and 0 <= u <= 1
    # parallel or a point: they meet where an end of one lies on the other

    def on(a, b, c):
        return ((b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])
                and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    return on(r, s, p) or on(r, s, q) or on(p, q, r) or on(p, q, s)


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=4, max_size=8))
def test_a_ring_is_refused_exactly_when_two_edges_sharing_no_vertex_meet(ring):
    """Edges that touch at a point or run along each other make the shoelace
    area differ from the cells the even-odd rule fills, so such rings are
    refused like crossing ones; the oracle is exact."""
    pts = ring[:-1] if ring[0] == ring[-1] else ring
    n = len(pts)
    area = sum(Fraction(x1 * y2 - x2 * y1) for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))
    meet = any(
        _exact_meet(pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n])
        for i in range(n) for j in range(i + 1, n)
        if j != i + 1 and (j + 1) % n != i
    )
    try:
        Footprint("R", "T", ring)
        refused = None
    except FootprintError as e:
        refused = str(e)
    if area == 0:
        assert refused == "footprint 'R': ring has zero area"
    else:
        assert refused == ("footprint 'R': ring is self-intersecting" if meet else None)


def test_a_ring_that_doubles_back_is_refused_by_estimate(tmp_path, capsys):
    """A ring, inside the demo's A1, whose edges touch and run along each
    other: its shoelace area was 94.5 m² over 114 one-metre cells, and
    ``estimate`` exited 0 with 21 units."""
    demo = Path(__file__).resolve().parents[1] / "demo" / "out"
    ring = [[37, 18], [37, 30], [40, 18], [37, 24], [37, 39], [31, 39], [28, 36]]
    (tmp_path / "fp.geojson").write_text(collection(feature("X", ring, unit_area_m2=20)))
    rc = main([
        "estimate", "--dsm", str(demo / "dsm.asc"), "--dtm", str(demo / "dtm.asc"),
        "--footprints", str(tmp_path / "fp.geojson"),
        "--out-heights", str(tmp_path / "h.csv"), "--out-estimates", str(tmp_path / "e.csv"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: footprint 'X': ring is self-intersecting\n"
    assert not (tmp_path / "h.csv").exists()


def test_zero_area_ring_rejected():
    collinear = [[0, 0], [1, 1], [2, 2]]
    with pytest.raises(FootprintError, match="zero area"):
        parse_footprints(collection(feature("B1", collinear)))


# the shoelace sum of this ring is inf - inf, so its area is NaN
OVERFLOWING_RING = [[0, -1e308], [10, 1e308], [0, 1e308], [0, -1e308]]


def test_a_ring_whose_area_overflows_is_a_typed_error(tmp_path, capsys):
    """The demo footprints with A1's ring replaced: refused by name through
    ``parse_footprints`` and through ``estimate``, which wrote an infinite
    area and the whole grid's cells for A1 with numpy warnings."""
    demo = Path(__file__).resolve().parents[1] / "demo" / "out"
    doc = json.loads((demo / "footprints.geojson").read_text())
    a1 = next(f for f in doc["features"] if f["properties"]["id"] == "A1")
    a1["geometry"]["coordinates"] = [OVERFLOWING_RING]
    text = json.dumps(doc)
    message = "footprint 'A1': ring area overflows the float range"
    with pytest.raises(FootprintError, match=re.escape(message)):
        parse_footprints(text)
    (tmp_path / "fp.geojson").write_text(text)
    rc = main([
        "estimate", "--dsm", str(demo / "dsm.asc"), "--dtm", str(demo / "dtm.asc"),
        "--footprints", str(tmp_path / "fp.geojson"),
        "--out-heights", str(tmp_path / "h.csv"), "--out-estimates", str(tmp_path / "e.csv"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "h.csv").exists()


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
         "feature 'B11': unit_area_m2 must be a finite number, got [43.1]"),
        (collection(feature("B12", SQUARE, units_per_floor="four")),
         "feature 'B12': units_per_floor must be a whole number, got 'four'"),
        (collection(feature(None, SQUARE)),
         "feature #0: 'id' must be a string or a number, got null"),
        (collection(feature("B1", SQUARE), feature(True, SQUARE)),
         "feature #1: 'id' must be a string or a number, got a boolean"),
        (collection(feature({"x": 1}, SQUARE)),
         "feature #0: 'id' must be a string or a number, got an object"),
        (collection(feature(["B1"], SQUARE)),
         "feature #0: 'id' must be a string or a number, got an array"),
        (collection(feature("B13", SQUARE, type_label=None)),
         "feature 'B13': 'type_label' must be a string or a number, got null"),
        (collection(feature("B14", SQUARE, type_label=False)),
         "feature 'B14': 'type_label' must be a string or a number, got a boolean"),
        (collection(feature("B15", SQUARE, type_label={"x": 1})),
         "feature 'B15': 'type_label' must be a string or a number, got an object"),
        (collection(feature("B16", SQUARE, type_label=["Type4"])),
         "feature 'B16': 'type_label' must be a string or a number, got an array"),
        # a line break would start a line of its own in model.obj ("o <id>")
        (collection(feature("A\nf 1 1 1", SQUARE)),
         "feature #0: 'id' must be one line, got 'A\\nf 1 1 1'"),
        (collection(feature("B17", SQUARE, type_label="Type\u2028A")),
         "feature 'B17': 'type_label' must be one line, got 'Type\\u2028A'"),
        # a JSON integer beyond the float range
        (collection(feature("B18", [[0, 0], [10**401, 0], [10, 10], [0, 10]])),
         "footprint 'B18': vertex #1 is not finite"),
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


_BAD_AREA = "footprint 'B1': unit_area_m2 must be finite and > 0"


@pytest.mark.parametrize(
    "props,message",
    [
        ({"units_per_floor": 2.7}, "feature 'B1': units_per_floor must be a whole number, got 2.7"),
        ({"units_per_floor": float("nan")},
         "feature 'B1': units_per_floor must be a whole number, got nan"),
        ({"units_per_floor": True}, "feature 'B1': units_per_floor must be a whole number, got True"),
        ({"unit_area_m2": False}, "feature 'B1': unit_area_m2 must be a finite number, got False"),
        ({"unit_area_m2": "50"}, "feature 'B1': unit_area_m2 must be a finite number, got '50'"),
        ({"unit_area_m2": float("nan")}, "feature 'B1': unit_area_m2 must be a finite number, got nan"),
        ({"unit_area_m2": float("inf")}, "feature 'B1': unit_area_m2 must be a finite number, got inf"),
        ({"unit_area_m2": float("-inf")},
         "feature 'B1': unit_area_m2 must be a finite number, got -inf"),
        ({"unit_area_m2": 0}, _BAD_AREA),
    ],
    ids=["fractional_units", "nan_units", "boolean_units", "boolean_area", "string_area",
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


def test_ids_and_labels_are_strings_or_numbers_as_text():
    fps = parse_footprints(collection(
        feature(7, SQUARE, type_label=3), feature("B2", SQUARE, type_label="Type4"),
        {"type": "Feature", "properties": {"id": "B3"},
         "geometry": {"type": "Polygon", "coordinates": [SQUARE]}},
    ))
    assert [(fp.id, fp.type_label) for fp in fps] == [("7", "3"), ("B2", "Type4"), ("B3", "")]


def _geojson_oracle(footprints):
    """``footprints_to_geojson`` by ``json.dumps``."""
    features = []
    for fp in footprints:
        props = {"id": fp.id, "type_label": fp.type_label}
        if fp.unit_area_m2 is not None:
            props["unit_area_m2"] = fp.unit_area_m2
        if fp.units_per_floor_override is not None:
            props["units_per_floor"] = fp.units_per_floor_override
        ring = [[x, y] for x, y in fp.ring] + [[fp.ring[0][0], fp.ring[0][1]]]
        features.append(
            {"type": "Feature", "properties": props,
             "geometry": {"type": "Polygon", "coordinates": [ring]}}
        )
    return json.dumps({"type": "FeatureCollection", "features": features}, indent=2) + "\n"


# any code point, with quotes, backslashes, control characters, non-ASCII
# and lone surrogates drawn often
_ANY_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\ud800\udfff')
)
_COORDS = st.sampled_from([-0.0, 1e-7, 1e22]) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _any_footprint(draw):
    ring = [(draw(_COORDS), draw(_COORDS)) for _ in range(draw(st.integers(3, 5)))]
    try:
        return Footprint(
            draw(_ANY_TEXT), draw(_ANY_TEXT), ring,
            unit_area_m2=draw(st.none() | st.floats(0.0, exclude_min=True, allow_infinity=False)),
            units_per_floor_override=draw(st.none() | st.integers(1, 10**20)),
        )
    except FootprintError:
        assume(False)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(_any_footprint(), max_size=4))
def test_geojson_template_matches_json_dumps(footprints):
    assert footprints_to_geojson(footprints) == _geojson_oracle(footprints)


def test_geojson_of_no_footprints():
    assert footprints_to_geojson([]) == _geojson_oracle([])
    assert parse_footprints(footprints_to_geojson([])) == []


# JSON values a footprint property or a position can hold, good and bad
_JSON_VALUE = (
    st.none() | st.booleans() | st.integers(-3, 12) | st.sampled_from([0.5, 1e16, 1e309, 150.0])
    | st.text("AB1 ", max_size=2) | st.lists(st.integers(0, 9), max_size=2)
)
# an id or a type_label: text or a number, else null, a boolean, an array or an object
_LABEL = st.text("AB1 ", max_size=2) | st.integers(0, 9) | st.sampled_from([None, False, [1], {}])
_POSITION = st.lists(st.integers(-1, 11) | st.floats(-1, 11), min_size=2, max_size=3)
_RECTANGLE = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 5)).map(
    lambda t: [[t[0], t[1]], [t[0] + t[2], t[1]], [t[0] + t[2], t[1] + t[2]], [t[0], t[1] + t[2]]]
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    fid=_LABEL,
    props=st.fixed_dictionaries({"type_label": _LABEL}, optional={
        "unit_area_m2": _JSON_VALUE, "units_per_floor": _JSON_VALUE,
    }),
    ring=_RECTANGLE | st.lists(_POSITION | _JSON_VALUE, max_size=5),
)
def test_features_and_prisms_share_one_record_reader(fid, props, ring):
    """The same record read as a GeoJSON feature and as a scene prism gives
    an equal Footprint, or errors that differ only in "feature" and "prism".
    ``type_label`` is always given: its default differs by design."""

    def read(parse):
        try:
            return parse()
        except FootprintError as e:
            return re.sub(r"^(feature|prism) ", "", str(e))

    from_feature = read(lambda: parse_footprints(collection(feature(fid, ring, **props)))[0])
    scene = {"georef": {"ncols": 20, "nrows": 20, "xll": 0, "yll": 0, "cellsize": 1},
             "prisms": [{"id": fid, "ring": ring, "height_m": 3.0, **props}]}
    from_prism = read(lambda: load_scene(json.dumps(scene)).prisms[0][0])
    assert from_feature == from_prism


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
    with pytest.raises(ConfigError, match=r"^percentile must be in \[0, 100\], got 101$"):
        nearest_rank_percentile(values, 101)


def test_zonal_height_constant_field():
    ndsm = make_grid(np.full((20, 20), 19.8))
    fp = Footprint("B1", "Type1", rectangle_ring(2, 2, 10, 10))
    rec = zonal_height(ndsm, fp)
    assert rec.height_m == pytest.approx(19.8)
    assert rec.valid_cells == 100
    assert rec.footprint_area_m2 == pytest.approx(100.0)
    with pytest.raises(ConfigError, match="^min_cells must be >= 1, got 0$"):
        zonal_height(ndsm, fp, min_cells=0)


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
