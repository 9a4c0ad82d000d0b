import html
import itertools
import json
import logging
import math
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from popvol import (
    ConfigError,
    OsmParseError,
    PipelineError,
    TagRule,
    amenities,
    count_within_radius,
    filter_amenities,
    haversine_m,
    load_rules,
    parse_osm,
)
from popvol.cli import main
from popvol.osm import OsmElement

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
    # a repeated node id before the cut does not hide the malformed XML
    with pytest.raises(OsmParseError, match="malformed"):
        parse_osm(_DUPLICATE_NODE[:-3])


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
# float and int would read "1_0" as 10 and the Arabic-Indic digits as 5 and 2
_HOSPITAL = '<tag k="amenity" v="hospital"/>'
_BAD_IDS = [
    (_DUPLICATE_NODE, "node id 1 appears more than once"),
    (_BAD_REF, "way 7: node reference 'x' is not an integer"),
    (f'<osm><node id="1" lat="1_0" lon="\u0665">{_HOSPITAL}</node></osm>',
     "element 1: attribute lat='1_0' is not a number"),
    (f'<osm><node id="1" lat="10" lon="\u0665">{_HOSPITAL}</node></osm>',
     "element 1: attribute lon='\u0665' is not a number"),
    (f'<osm><node id="1_0" lat="10" lon="5">{_HOSPITAL}</node></osm>',
     "node id '1_0' is not an integer"),
    (f'<osm><node id="2" lat="10" lon="5"/><way id="7"><nd ref="\u0662"/>{_HOSPITAL}</way></osm>',
     "way 7: node reference '\u0662' is not an integer"),
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


@pytest.mark.parametrize(
    "text,message", _BAD_IDS,
    ids=["duplicate_node", "bad_ref", "underscore_lat", "arabic_indic_lon",
         "underscore_id", "arabic_indic_ref"],
)
def test_repeated_node_id_or_bad_node_reference_is_typed_error(tmp_path, capsys, text, message):
    """A repeated node id would give both elements the second node's
    coordinates; a non-integer reference names its way. Ids, coordinates and
    references are decimal text as ``errors.decimal`` reads it."""
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


# --- the ElementTree walk that parse_osm replaced, kept as its reference ---


def _tree_require_attr(el, name, elem_id):
    value = el.get(name)
    if value is None:
        raise OsmParseError(f"element {elem_id}: missing attribute {name!r}")
    return value


def _tree_number(raw, convert):
    """``convert(raw)``, or None for text that is not plain ASCII without an
    underscore, or that ``convert`` refuses."""
    try:
        return convert(raw) if raw.isascii() and "_" not in raw else None
    except ValueError:
        return None


def _tree_float_attr(el, name, elem_id):
    raw = _tree_require_attr(el, name, elem_id)
    value = _tree_number(raw, float)
    if value is None:
        raise OsmParseError(f"element {elem_id}: attribute {name}={raw!r} is not a number")
    return value


def _tree_int_attr(raw, what):
    value = _tree_number(raw, int)
    if value is None:
        raise OsmParseError(f"{what} {raw!r} is not an integer")
    return value


def _tree_check_coords(lat, lon, where):
    if not (-90 <= lat <= 90 and -180 <= lon <= 180):
        raise OsmParseError(f"{where}: coordinates ({lat}, {lon}) out of range")


def tree_walk_parse_osm(text):
    """Build the whole element tree, then walk it twice: every ``node`` at
    any depth, then each child of the root."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        raise OsmParseError(f"malformed XML: {e}") from None
    if root.tag != "osm":
        raise OsmParseError(f"expected top-level <osm>, got <{root.tag}>")

    nodes = {}
    for el in root.iter("node"):
        elem_id = _tree_int_attr(_tree_require_attr(el, "id", "?"), "node id")
        if elem_id in nodes:
            raise OsmParseError(f"node id {elem_id} appears more than once")
        nodes[elem_id] = (
            _tree_float_attr(el, "lat", elem_id),
            _tree_float_attr(el, "lon", elem_id),
        )

    elements = []
    dropped_ways = 0
    for el in root:
        tags = {
            t.get("k"): t.get("v")
            for t in el.findall("tag")
            if t.get("k") is not None and t.get("v") is not None
        }
        if el.tag == "node":
            elem_id = int(_tree_require_attr(el, "id", "?"))
            lat, lon = nodes[elem_id]
            _tree_check_coords(lat, lon, f"element {elem_id}")
            elements.append(OsmElement(elem_id, "node", lat, lon, tags))
        elif el.tag == "way":
            elem_id = _tree_int_attr(_tree_require_attr(el, "id", "?"), "way id")
            what = f"way {elem_id}: node reference"
            refs = [_tree_int_attr(r, what) for nd in el.findall("nd") if (r := nd.get("ref"))]
            if len(refs) >= 2 and refs[0] == refs[-1]:
                refs = refs[:-1]
            coords = [nodes[r] for r in refs if r in nodes]
            if not coords:
                dropped_ways += 1
                continue
            lat = sum(c[0] for c in coords) / len(coords)
            lon = sum(c[1] for c in coords) / len(coords)
            _tree_check_coords(lat, lon, f"element {elem_id}")
            elements.append(OsmElement(elem_id, "way", lat, lon, tags))
    if dropped_ways:
        logging.getLogger("popvol.osm").warning(
            "dropped %d ways with no resolvable member nodes", dropped_ways
        )
    return elements


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append((record.name, record.levelno, record.getMessage()))


def _outcome(parse, text):
    """The elements' or records' reprs (which tell -0.0 from 0.0) or the
    ``OsmParseError`` text, and the log records emitted."""
    handler = _Collect()
    osm_logger = logging.getLogger("popvol.osm")
    osm_logger.addHandler(handler)
    try:
        result = [repr(e) for e in parse(text)]
    except OsmParseError as e:
        result = f"OsmParseError: {e}"
    finally:
        osm_logger.removeHandler(handler)
    return result, handler.records


def _mostly(good, bad):
    """One of ``good``, or one time in eight one of ``bad``."""
    return st.sampled_from(good * (7 * len(bad)) + bad * len(good))


_FRESH = object()  # on a node, an id not used before in the document; elsewhere 7
_ID = _mostly([_FRESH], [None, None, "", "x", " 4 ", "+3", "1_0", "\u0663", "2.0", "1", "3"])
_ATTRS = {  # by tag; any other tag gets an id
    "node": st.fixed_dictionaries({
        "id": _ID,
        "lat": _mostly(["0", "45.5", "-12.25", "89.99", " 3 ", "-0.0", "1e1"],
                       [None, "", "x", "nan", "91", "-1e3", "1_0"]),
        "lon": _mostly(["0", "120.5", "-179.9", "180", "7", "-2.5"],
                       [None, "", "y", "-inf", "181", "\u0665"]),
    }),
    "tag": st.fixed_dictionaries({
        "k": _mostly(["amenity", "name", "a&amp;b", "&#x41;", ""], [None]),
        "v": _mostly(["hospital", "school", "&lt;x&gt;", ""], [None]),
    }),
    "nd": st.fixed_dictionaries({
        "ref": _mostly(["1", "2", "3", "4"], [None, "", "x", " 2", "99", "\u0662"]),
    }),
}
_TAGS = {  # by depth below the root
    1: ["node", "node", "way", "way", "relation", "tag", "p:node", "#comment"],
    2: ["tag", "tag", "nd", "nd", "nd", "node", "way", "member", "p:node", "#comment"],
    3: ["node", "way", "tag", "nd", "relation", "#comment"],
}
_ROOTS = _mostly(
    [("osm", ' version="0.6" xmlns:p="urn:p"'), ("osm", ' xmlns:p="urn:p"')],
    [("osm", ""), ("p:osm", ' xmlns:p="urn:p"'), ("osm", ' xmlns="urn:p" xmlns:p="urn:p"'),
     ("xml", ""), ("node", ' xmlns:p="urn:p"')],
)


@st.composite
def _element(draw, tags, children):
    tag = draw(tags)
    attrs = draw(_ATTRS.get(tag.removeprefix("p:"), st.fixed_dictionaries({"id": _ID})))
    return tag, attrs, draw(children)


def _elements(depth, tags=_TAGS, **size):
    """Lists of elements at ``depth`` below the root, nested down to depth 3,
    with ``tags`` by depth."""
    children = _elements(depth + 1, tags, max_size=4) if depth < 3 else st.just([])
    return st.lists(_element(st.sampled_from(tags[depth]), children), **size)


def _xml(element, fresh):
    tag, attrs, children = element
    if tag == "#comment":
        return "<!-- c -->"
    if attrs.get("id") is _FRESH:
        attrs = dict(attrs, id=next(fresh) if tag == "node" else "7")
    attributes = "".join(f' {name}="{value}"' for name, value in attrs.items() if value is not None)
    inner = "".join(_xml(child, fresh) for child in children)
    return f"<{tag}{attributes}>{inner}</{tag}>" if inner else f"<{tag}{attributes}/>"


@st.composite
def _documents(draw, tags=_TAGS):
    """Nested .osm text: missing, empty, non-numeric and repeated ids and
    coordinates, forward and dangling references, a wrong or namespaced
    root, and text that is cut off or has an undefined entity or a stray
    character put in."""
    tag, namespaces = draw(_ROOTS)
    fresh = map(str, itertools.count(1))
    body = "".join(_xml(e, fresh) for e in draw(_elements(1, tags, min_size=2, max_size=8)))
    text = draw(st.sampled_from(["", '<?xml version="1.0"?>\n', "\ufeff"]))
    text += f"<{tag}{namespaces}>{body}</{tag}>"
    at = draw(st.integers(0, len(text)))
    damage = draw(_mostly([None], ["", "&bogus;", "<", "&", '"']))  # "": cut at ``at``
    return text if damage is None else text[:at] + damage + (text[at:] if damage else "")


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_documents())
@example('<osm><way id="1"><nd ref="2"/><nd ref="3"/><nd ref="2"/></way>'
         '<node id="2" lat="1" lon="2"/><node id="3" lat="3" lon="4"/></osm>')
@example('<osm><node id="1" lat="0" lon="0">'
         '<tag k="a" v="1"/><tag k="b" v="2"/><tag k="a" v="3"/></node></osm>')
def test_one_pass_parse_equals_the_tree_walk(text):
    """Same elements or the same error text, and the same warning, as the
    two passes over a whole element tree."""
    assert _outcome(parse_osm, text) == _outcome(tree_walk_parse_osm, text)


@st.composite
def _documents_and_rules(draw):
    """A ``_documents()`` text with more nodes and ways holding more ``tag``
    children, and one to three rules on the ``tag`` keys and values the text
    holds."""
    tags = {**_TAGS, 1: ["node", "way"] * 3 + _TAGS[1], 2: ["tag"] * 6 + _TAGS[2]}
    text = draw(_documents(tags))

    def held(name):
        found = {html.unescape(v) for v in re.findall(f' {name}="([^"]*)"', text)} - {""}
        return st.sampled_from(sorted(found) or ["amenity"])

    rule = st.builds(TagRule, st.sampled_from(["h", "s"]), held("k"), held("v"))
    return text, draw(st.lists(rule, min_size=1, max_size=3))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_documents_and_rules())
@example(('<osm><node id="1" lat="0" lon="0">'
          '<tag k="amenity" v="school"/><tag k="amenity" v="hospital"/></node></osm>', RULES))
@example((OSM_WAY, RULES))
@example(('<osm><node id="1" lat="0" lon="0"><tag k="amenity" v="hospital"/></node>'
          '<node id="2" lat="x" lon="0"/></osm>', RULES))
@example(('<osm><node id="1" lat="0" lon="0"/><node id="2" lat="x" lon="y"/></osm>', RULES))
def test_amenity_pass_equals_filtering_the_tree_walk(case):
    """Same records or the same error text, and the same warning, as keeping
    the rule hits among the elements of the whole element tree."""
    text, rules = case
    assert _outcome(lambda t: amenities(t, rules), text) == _outcome(
        lambda t: filter_amenities(tree_walk_parse_osm(t), rules), text
    )


def _extract(nodes, ways):
    """An .osm text shaped like a city extract: free nodes, some tagged,
    then the member nodes and closed ways of square blocks."""
    rng = random.Random(5)
    out = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6">']
    for nid in range(1, nodes + 1):
        head = f'  <node id="{nid}" lat="{rng.uniform(22, 24):.7f}" lon="{rng.uniform(72, 73):.7f}"'
        if nid <= nodes - 4 * ways and rng.random() < 0.1:
            out += [head + ">", '    <tag k="amenity" v="school"/>', "  </node>"]
        else:
            out.append(head + "/>")
    for k in range(ways):
        refs = [nodes - 4 * ways + 4 * k + i for i in (1, 2, 3, 4, 1)]
        out.append(f'  <way id="{1_000_001 + k}">')
        out.append("    " + "".join(f'<nd ref="{r}"/>' for r in refs))
        out += ['    <tag k="building" v="yes"/>', "  </way>"]
    return "\n".join(out + ["</osm>"]) + "\n"


def test_parse_holds_no_element_tree():
    """The whole tree of an extract peaks at about 19x the text's length;
    the one-pass records at about 8x."""
    text = _extract(12_000, 1_200)
    tracemalloc.start()
    try:
        elements = parse_osm(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(elements) == 12_000 + 1_200
    assert peak < 15 * len(text), f"peak {peak / len(text):.1f}x the text length"


def test_amenity_pass_holds_only_the_node_columns():
    """``amenities`` peaks at 7.8x the text's length on this extract (Python
    3.11), where the element per node it replaced peaked at 10.5x: the node
    columns, raw and converted, are the peak, and a record is built only for
    a school."""
    text = _extract(12_000, 1_200)
    tracemalloc.start()
    try:
        records = amenities(text, RULES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == sum(1 for line in text.splitlines() if 'v="school"' in line)
    assert peak < 9 * len(text), f"peak {peak / len(text):.1f}x the text length"
