import json
import math
import random

import pytest

from popvol import (
    ConfigError,
    OsmParseError,
    PipelineError,
    TagRule,
    count_within_radius,
    filter_amenities,
    haversine_m,
    load_rules,
    parse_osm,
)
from popvol.cli import main

RULES = [
    TagRule("hospital", "amenity", "hospital"),
    TagRule("school", "amenity", "school"),
]

OSM_ONE_NODE = """<?xml version="1.0"?>
<osm version="0.6">
  <node id="101" lat="23.0" lon="72.5">
    <tag k="amenity" v="hospital"/>
    <tag k="name" v="City Hospital"/>
  </node>
</osm>
"""

OSM_WAY = """<?xml version="1.0"?>
<osm version="0.6">
  <node id="1" lat="0" lon="0"/>
  <node id="2" lat="0" lon="2"/>
  <node id="3" lat="2" lon="2"/>
  <node id="4" lat="2" lon="0"/>
  <way id="50">
    <nd ref="1"/><nd ref="2"/><nd ref="3"/><nd ref="4"/><nd ref="1"/>
    <tag k="amenity" v="school"/>
  </way>
  <relation id="900">
    <member type="way" ref="50" role="outer"/>
    <tag k="type" v="multipolygon"/>
  </relation>
</osm>
"""


def test_parse_single_node():
    elements = parse_osm(OSM_ONE_NODE)
    assert len(elements) == 1
    el = elements[0]
    assert (el.kind, el.element_id, el.lat, el.lon) == ("node", 101, 23.0, 72.5)
    assert el.tags == {"amenity": "hospital", "name": "City Hospital"}


def test_closed_way_centroid_drops_repeated_ref():
    elements = parse_osm(OSM_WAY)
    way = [e for e in elements if e.kind == "way"][0]
    assert (way.lat, way.lon) == (1.0, 1.0)


def test_relations_ignored():
    elements = parse_osm(OSM_WAY)
    assert {e.kind for e in elements} == {"node", "way"}
    assert len(elements) == 5


def test_way_without_resolvable_nodes_dropped():
    text = """<osm><way id="7"><nd ref="999"/><tag k="amenity" v="school"/></way></osm>"""
    assert parse_osm(text) == []


def test_malformed_xml():
    with pytest.raises(OsmParseError, match="malformed"):
        parse_osm("<osm><node id='1'")
    with pytest.raises(OsmParseError, match="top-level"):
        parse_osm("<xml></xml>")


def test_node_missing_coordinates():
    with pytest.raises(OsmParseError, match="lat"):
        parse_osm('<osm><node id="5" lon="1.0"/></osm>')


def test_node_coordinates_out_of_range():
    with pytest.raises(OsmParseError, match="out of range"):
        parse_osm('<osm><node id="5" lat="91.0" lon="0"/></osm>')


_DUPLICATE_NODE = """<osm>
  <node id="1" lat="23.0" lon="72.5"><tag k="amenity" v="hospital"/></node>
  <node id="1" lat="40.0" lon="10.0"/>
</osm>"""
_BAD_REF = """<osm>
  <node id="1" lat="23.0" lon="72.5"/>
  <way id="7"><nd ref="1"/><nd ref="x"/><tag k="amenity" v="school"/></way>
</osm>"""
_BAD_IDS = [
    (_DUPLICATE_NODE, "node id 1 appears more than once"),
    (_BAD_REF, "way 7: node reference 'x' is not an integer"),
]


def _amenities(tmp_path):
    """``amenities`` on the site.osm and rules.json in ``tmp_path``, 2000 m
    around (23.0, 72.5)."""
    (tmp_path / "config.json").write_text(
        json.dumps({"center_lat": 23.0, "center_lon": 72.5, "radius_m": 2000.0})
    )
    return main([
        "amenities", "--osm", str(tmp_path / "site.osm"), "--rules", str(tmp_path / "rules.json"),
        "--config", str(tmp_path / "config.json"),
        "--out-records", str(tmp_path / "records.csv"),
        "--out-summary", str(tmp_path / "summary.csv"),
    ])


@pytest.mark.parametrize("text,message", _BAD_IDS, ids=["duplicate_node", "bad_ref"])
def test_repeated_node_id_or_bad_node_reference_is_typed_error(tmp_path, capsys, text, message):
    """A repeated node id would give both elements the second node's
    coordinates; a non-integer reference names its way."""
    with pytest.raises(OsmParseError) as e:
        parse_osm(text)
    assert str(e.value) == message
    (tmp_path / "site.osm").write_text(text)
    (tmp_path / "rules.json").write_text(json.dumps(
        [{"category": r.category, "key": r.key, "value": r.value} for r in RULES]
    ))
    rc = _amenities(tmp_path)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "records.csv").exists()


def test_filter_assigns_category():
    elements = parse_osm(OSM_WAY)
    records = filter_amenities(elements, RULES)
    assert len(records) == 1
    assert records[0].category == "school"
    assert records[0].element_id == 50


def test_filter_drops_unmatched():
    text = '<osm><node id="1" lat="0" lon="0"><tag k="amenity" v="pharmacy"/></node></osm>'
    assert filter_amenities(parse_osm(text), RULES) == []


def test_filter_first_rule_wins():
    text = (
        '<osm><node id="1" lat="0" lon="0">'
        '<tag k="amenity" v="hospital"/><tag k="healthcare" v="hospital"/>'
        "</node></osm>"
    )
    rules = [
        TagRule("clinic", "healthcare", "hospital"),
        TagRule("hospital", "amenity", "hospital"),
    ]
    records = filter_amenities(parse_osm(text), rules)
    assert [r.category for r in records] == ["clinic"]


def test_load_rules():
    rules = load_rules('[{"category": "hospital", "key": "amenity", "value": "hospital"}]')
    assert rules == [TagRule("hospital", "amenity", "hospital")]


@pytest.mark.parametrize(
    "rules,index",
    [
        (["hospital"], 0),
        ([{"category": "a", "key": "amenity", "value": "a"}, None], 1),
        ([{"category": "hospital", "key": "amenity"}], 0),
        ([{"key": "amenity", "value": "school"}], 0),
        ([{"category": "a", "key": ["amenity"], "value": "a"}], 0),
        ([{"category": 1, "key": "amenity", "value": "a"}], 0),
    ],
)
def test_malformed_rules_are_typed_errors(tmp_path, capsys, rules, index):
    text = json.dumps(rules)
    with pytest.raises(PipelineError, match=f"rules entry #{index}:"):
        load_rules(text)
    (tmp_path / "site.osm").write_text('<osm version="0.6"></osm>')
    (tmp_path / "rules.json").write_text(text)
    rc = _amenities(tmp_path)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: rules entry #{index}: needs string 'category', 'key' and 'value'\n"


def test_haversine_identical_points():
    assert haversine_m(23.0, 72.5, 23.0, 72.5) == 0.0


def test_haversine_one_degree_longitude_at_equator():
    # R * pi / 180 with R = 6371008.8
    assert haversine_m(0, 0, 0, 1) == pytest.approx(111195.08, abs=0.01)


def test_haversine_antipodal():
    assert haversine_m(0, 0, 0, 180) == pytest.approx(math.pi * 6_371_008.8, abs=0.1)


def test_haversine_symmetry_and_triangle_inequality():
    rng = random.Random(17)
    for _ in range(50):
        pts = [(rng.uniform(-89, 89), rng.uniform(-180, 180)) for _ in range(3)]
        a, b, c = pts
        assert haversine_m(*a, *b) == pytest.approx(haversine_m(*b, *a), abs=1e-9)
        ab = haversine_m(*a, *b)
        bc = haversine_m(*b, *c)
        ac = haversine_m(*a, *c)
        assert ac <= ab + bc + 1e-6


def _hospital_node(nid, lat, lon):
    return f'<node id="{nid}" lat="{lat}" lon="{lon}"><tag k="amenity" v="hospital"/></node>'


def test_count_within_radius_fixture():
    # hospitals roughly 500 m, 1500 m and 3000 m north of the center
    deg = 1.0 / 111194.93
    center = (23.0, 72.5)
    text = "<osm>{}{}{}</osm>".format(
        _hospital_node(1, 23.0 + 500 * deg, 72.5),
        _hospital_node(2, 23.0 + 1500 * deg, 72.5),
        _hospital_node(3, 23.0 + 3000 * deg, 72.5),
    )
    amenities = filter_amenities(parse_osm(text), RULES)
    counts, matched = count_within_radius(amenities, *center, 2000.0)
    assert counts == {"hospital": 2}
    assert {rec.element_id for rec, _ in matched} == {1, 2}
    assert sum(counts.values()) <= len(amenities)


def test_count_radius_zero():
    amenities = filter_amenities(parse_osm(OSM_ONE_NODE), RULES)
    counts, matched = count_within_radius(amenities, 22.0, 72.0, 0.0)
    assert counts == {"hospital": 0}
    assert matched == []


def test_count_super_antipodal_radius_catches_everything():
    elements = parse_osm(OSM_WAY)
    amenities = filter_amenities(elements, RULES)
    counts, _ = count_within_radius(amenities, -45.0, -170.0, 20_100_000.0)
    assert counts == {"school": 1}


@pytest.mark.parametrize(
    "center,radius,error,message",
    [
        ((22.0, 72.0), float("nan"), ConfigError, "radius_m must be a finite number >= 0, got nan"),
        ((22.0, 72.0), float("inf"), ConfigError, "radius_m must be a finite number >= 0, got inf"),
        ((22.0, 72.0), -1.0, ConfigError, "radius_m must be a finite number >= 0, got -1.0"),
        ((float("nan"), 72.0), 100.0, OsmParseError, "center: coordinates (nan, 72.0) out of range"),
        ((22.0, float("-inf")), 100.0, OsmParseError,
         "center: coordinates (22.0, -inf) out of range"),
    ],
)
def test_count_rejects_a_bad_center_or_radius(center, radius, error, message):
    amenities = filter_amenities(parse_osm(OSM_ONE_NODE), RULES)
    with pytest.raises(error) as caught:
        count_within_radius(amenities, *center, radius)
    assert str(caught.value) == message


def test_count_monotone_in_radius():
    deg = 1.0 / 111194.93
    nodes = "".join(
        _hospital_node(i, 23.0 + d * deg, 72.5) for i, d in enumerate([100, 900, 2500, 7000])
    )
    amenities = filter_amenities(parse_osm(f"<osm>{nodes}</osm>"), RULES)
    last = -1
    for radius in (50, 500, 1000, 3000, 10000):
        counts, _ = count_within_radius(amenities, 23.0, 72.5, radius)
        assert counts["hospital"] >= last
        last = counts["hospital"]
