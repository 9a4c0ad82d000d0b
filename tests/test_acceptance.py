"""Acceptance suite: pinned end-to-end checks with stated tolerances.

Each criterion prints one pass/fail line (run with `pytest -s` to see them
on success).
"""

import functools
import json
import math
import random
import time

import numpy as np
import pytest

from popvol import (
    EstimationConfig,
    Footprint,
    GridGeoref,
    GroundTruthRow,
    SyntheticScene,
    TerrainModel,
    diff_footnotes,
    extrude,
    filter_amenities,
    floors_from_height,
    parse_osm,
    person_total_footnotes,
    progressive_morphological_filter,
    rasterize_polygon,
    synthesize_dsm,
    validate_report,
    write_obj,
)
from popvol.cli import main, read_estimates_csv
from popvol.osm import TagRule, count_within_radius

import site_data
from conftest import cell_set, rectangle_ring


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {n}] {label}: FAIL")
                raise
            print(f"[criterion {n}] {label}: PASS")
        return wrapper
    return deco


# --------------------------------------------------------------------------
# 1. floor-count reproduction
# --------------------------------------------------------------------------


@criterion(1, "floor-count reproduction (38/39 rows, one documented mismatch)")
def test_criterion_1_floor_counts(site_rows):
    cfg = EstimationConfig(floor_height_m=3.0)
    start = time.perf_counter()
    mismatches = []
    for bid, _, height, published_floors, *_ in site_rows:
        computed = floors_from_height(height, cfg)
        if computed != published_floors:
            mismatches.append((bid, computed, published_floors))
    elapsed = time.perf_counter() - start
    assert len(site_rows) == 39
    assert mismatches == [(site_data.FLOOR_MISMATCH_ID, 4, 3)]
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 2. unit totals
# --------------------------------------------------------------------------


@criterion(2, "per-type unit totals 136/208/240/32/32, grand total 648")
def test_criterion_2_unit_totals(site_society):
    units = {label: tot.units for label, tot in site_society.per_type.items()}
    assert units == {"Type1": 136, "Type2": 208, "Type3": 240, "Type4": 32, "Type5": 32}
    assert site_society.total_units == 648


# --------------------------------------------------------------------------
# 3. validation report
# --------------------------------------------------------------------------


@criterion(3, "validation report vs ground truth (133/211/241/43/31)")
def test_criterion_3_validation_report(site_society):
    gt = [GroundTruthRow(t, u) for t, u in site_data.GROUND_TRUTH_UNITS.items()]
    rows = validate_report(site_society, gt)
    total = rows[-1]
    assert (total.estimated_units, total.ground_units) == (648, 659)
    assert total.diff_pct == pytest.approx(11 / 659 * 100, abs=0.01)
    assert round(total.diff_pct, 2) == 1.67

    recomputed = {r.type_label: round(r.diff_pct, 2) for r in rows}
    assert recomputed == site_data.EXPECTED_RECOMPUTED_DIFF_PCT

    notes = diff_footnotes(rows, site_data.PUBLISHED_UNIT_DIFF_PCT)
    flagged = {n.split(":")[0] for n in notes}
    assert flagged == {"Type1", "Type2", "Type4", "Type5", "TOTAL"}


# --------------------------------------------------------------------------
# 4. population reproduction
# --------------------------------------------------------------------------


@criterion(4, "person totals 816/832/840/96/64, grand 2648 (published 2632 flagged)")
def test_criterion_4_population(site_society):
    persons = {label: tot.persons for label, tot in site_society.per_type.items()}
    assert persons == {
        "Type1": 816.0,
        "Type2": 832.0,
        "Type3": 840.0,
        "Type4": 96.0,
        "Type5": 64.0,
    }
    assert site_society.total_persons == 2648.0
    notes = person_total_footnotes(site_society, site_data.PUBLISHED_PERSONS)
    flagged = {n.split(":")[0] for n in notes}
    assert flagged == {"Type2", "TOTAL"}


# --------------------------------------------------------------------------
# 5. synthetic round trip through the full pipeline
# --------------------------------------------------------------------------

ROUND_TRIP_SCENE = {
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
    "seed": 424242,
}

TRUE_HEIGHTS = {p["id"]: p["height_m"] for p in ROUND_TRIP_SCENE["prisms"]}
EXPECTED_FLOORS = {bid: math.ceil(h / 3.0) for bid, h in TRUE_HEIGHTS.items()}


@criterion(5, "synthetic round trip: heights within 0.2 m, floors exact, < 30 s")
def test_criterion_5_round_trip(tmp_path):
    start = time.perf_counter()
    (tmp_path / "scene.json").write_text(json.dumps(ROUND_TRIP_SCENE))
    assert main([
        "synth", "--scene", str(tmp_path / "scene.json"),
        "--out-dsm", str(tmp_path / "dsm.asc"),
        "--out-footprints", str(tmp_path / "footprints.geojson"),
    ]) == 0
    config = {"dsm": "dsm.asc", "footprints": "footprints.geojson", "out_dir": "out"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 0

    estimates = read_estimates_csv((tmp_path / "out" / "estimates.csv").read_text())
    assert len(estimates) == 5
    for est in estimates:
        true_h = TRUE_HEIGHTS[est.id]
        assert abs(est.height_m - true_h) <= 0.2, (est.id, est.height_m, true_h)
        assert est.floors == EXPECTED_FLOORS[est.id]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# 6. DTM property suite over randomized scenes
# --------------------------------------------------------------------------


def _random_scene(rng, index):
    size = rng.randint(70, 90)
    ref = GridGeoref(size, size, 0.0, 0.0, 1.0)
    flat = index % 5 == 0
    if flat:
        terrain = TerrainModel(rng.uniform(0, 200))
        prisms = []
    else:
        terrain = TerrainModel(
            rng.uniform(0, 200),
            grad_x=rng.uniform(-0.05, 0.05),
            grad_y=rng.uniform(-0.05, 0.05),
        )
        prisms = []
        slots = [(2.0, 2.0), (2.0, size / 2 + 1), (size / 2 + 1, 2.0), (size / 2 + 1, size / 2 + 1)]
        rng.shuffle(slots)
        for k in range(rng.randint(1, 3)):
            x0, y0 = slots[k]
            w = rng.uniform(6, min(30.0, size / 2 - 4))
            d = rng.uniform(6, min(30.0, size / 2 - 4))
            h = rng.uniform(4.0, 18.0)
            fp = Footprint(f"S{index}P{k}", "T", rectangle_ring(x0 + 1, y0 + 1, w, d))
            prisms.append((fp, h))
    return SyntheticScene(
        georef=ref,
        terrain=terrain,
        prisms=prisms,
        noise_amplitude_m=rng.choice([0.0, 0.05, 0.1]),
        seed=rng.randint(0, 2**31),
    ), flat


@criterion(6, "DTM properties over 50 randomized scenes")
def test_criterion_6_dtm_properties():
    rng = random.Random(20260808)
    for index in range(50):
        scene, flat = _random_scene(rng, index)
        dsm = synthesize_dsm(scene).dsm
        if index % 7 == 0:
            # punch a nodata patch into the surface, away from the prisms
            data = dsm.data.copy()
            data[0:4, 0:4] = np.nan
            dsm = type(dsm)(dsm.georef, data, dsm.nodata)
        dtm, ground = progressive_morphological_filter(dsm)

        valid = dsm.valid_mask
        assert (dtm.data[valid] <= dsm.data[valid]).all(), index
        assert np.array_equal(dtm.valid_mask, dsm.valid_mask), index

        if flat and not scene.prisms:
            assert dtm == dsm, index
            assert ground[valid].all(), index

        for fp, height in scene.prisms:
            assert height > 3.0
            cells = cell_set(rasterize_polygon(fp, scene.georef))
            interior = {
                (r, c)
                for r, c in cells
                if all(
                    (r + dr, c + dc) in cells
                    for dr in (-1, 0, 1)
                    for dc in (-1, 0, 1)
                )
            }
            for r, c in interior:
                assert not ground[r, c], (index, fp.id, r, c)


# --------------------------------------------------------------------------
# 7. OSM fixture radius counts vs an independent distance check
# --------------------------------------------------------------------------

SITE_LAT, SITE_LON = 23.0225, 72.5

OSM_FIXTURE = """<?xml version="1.0"?>
<osm version="0.6">
  <node id="1" lat="23.026" lon="72.5"><tag k="amenity" v="hospital"/></node>
  <node id="2" lat="23.0225" lon="72.509"><tag k="amenity" v="hospital"/></node>
  <node id="3" lat="23.004" lon="72.5"><tag k="amenity" v="hospital"/></node>
  <node id="4" lat="23.0225" lon="72.45"><tag k="amenity" v="hospital"/></node>
  <node id="5" lat="23.12" lon="72.5"><tag k="amenity" v="hospital"/></node>
  <node id="6" lat="23.028" lon="72.505"><tag k="amenity" v="school"/></node>
  <node id="7" lat="23.1" lon="72.58"><tag k="amenity" v="school"/></node>
  <node id="20" lat="23.044" lon="72.52"/>
  <node id="21" lat="23.044" lon="72.526"/>
  <node id="22" lat="23.048" lon="72.526"/>
  <node id="23" lat="23.048" lon="72.52"/>
  <way id="50">
    <nd ref="20"/><nd ref="21"/><nd ref="22"/><nd ref="23"/><nd ref="20"/>
    <tag k="amenity" v="hospital"/>
  </way>
</osm>
"""

RULES = [TagRule("hospital", "amenity", "hospital"), TagRule("school", "amenity", "school")]


def _law_of_cosines_m(lat1, lon1, lat2, lon2):
    """Independent spherical distance for the brute-force check."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    cosine = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return 6_371_008.8 * math.acos(max(-1.0, min(1.0, cosine)))


@criterion(7, "OSM fixture counts at three radii match brute force")
def test_criterion_7_osm_counts():
    elements = parse_osm(OSM_FIXTURE)
    amenities = filter_amenities(elements, RULES)
    assert len(amenities) == 8  # 5 hospital nodes + 2 school nodes + 1 hospital way

    for radius in (1000.0, 3000.0, 12000.0):
        counts, _ = count_within_radius(amenities, SITE_LAT, SITE_LON, radius)
        brute = {"hospital": 0, "school": 0}
        for rec in amenities:
            if _law_of_cosines_m(SITE_LAT, SITE_LON, rec.lat, rec.lon) <= radius:
                brute[rec.category] += 1
        assert counts == brute, radius

    # fixture distances: hospitals at 389, 921, 2057, 3517 (way), 5117, 10841 m;
    # schools at 797 and 11885 m
    counts_1k, _ = count_within_radius(amenities, SITE_LAT, SITE_LON, 1000.0)
    counts_3k, _ = count_within_radius(amenities, SITE_LAT, SITE_LON, 3000.0)
    counts_12k, _ = count_within_radius(amenities, SITE_LAT, SITE_LON, 12000.0)
    assert counts_1k == {"hospital": 2, "school": 1}
    assert counts_3k == {"hospital": 3, "school": 1}
    assert counts_12k == {"hospital": 6, "school": 2}


# --------------------------------------------------------------------------
# 8. mesh checks
# --------------------------------------------------------------------------


def _mesh_volume(mesh):
    total = 0.0
    verts = [np.asarray(v, dtype=float) for v in mesh.vertices]
    for face in mesh.faces:
        pts = [verts[i - 1] for i in face]
        for k in range(1, len(pts) - 1):
            total += np.dot(pts[0], np.cross(pts[k], pts[k + 1])) / 6.0
    return total


@criterion(8, "prism volumes within 1e-6 relative; unit-cube OBJ line counts")
def test_criterion_8_mesh():
    rng = random.Random(314159)
    for i in range(20):
        w, d, h = rng.uniform(2, 40), rng.uniform(2, 40), rng.uniform(0.5, 30)
        fp = Footprint(
            f"R{i}", "T",
            rectangle_ring(rng.uniform(-100, 100), rng.uniform(-100, 100), w, d),
        )
        mesh = extrude([(fp, h)], base_elevation_m=rng.uniform(-10, 10))
        assert _mesh_volume(mesh) == pytest.approx(w * d * h, rel=1e-6)

    cube = extrude([(Footprint("unit", "T", rectangle_ring(0, 0, 1, 1)), 1.0)])
    lines = write_obj(cube).splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 8
    assert sum(1 for l in lines if l.startswith("f ")) == 6
