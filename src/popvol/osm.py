"""OpenStreetMap XML parsing, tag-rule amenity filtering, radius counts.

Handles the plain .osm XML layout: <node id lat lon> with nested <tag k v>,
<way id> with nested <nd ref> and <tag>. Ways are reduced to the arithmetic
centroid of their member nodes; relations are ignored. Distances use the
haversine great-circle formula on a spherical Earth.

``amenities`` reads the text in one expat pass and builds no element tree:
the parser's target keeps the raw id and coordinates of each ``node`` (at any
depth) and each root child's tag and id, with its ``tag`` pairs and ``nd``
refs only where it has some. Node ids and coordinates follow ``decimal``'s
rule, as the grid and CSV readers do: each column, and each way's node
references, is checked once, joined, then converted in bulk; a node-by-node
walk runs only to name the first bad one. The root's children are resolved
in document order, so a way may reference a later node, and an
``AmenityRecord`` is built only for a node or way a rule matches. Errors wait
for the end of the text, in this order: malformed XML; a root other than
``<osm>``; the first bad node in document order; the first bad root child
(way id, node reference, coordinates out of range) in document order.

``parse_osm`` runs the same pass and returns an ``OsmElement`` for every node
and way; ``filter_amenities`` keeps the rule hits among them. The pipeline
uses neither; they stay as public API and as the reference ``amenities`` is
tested against. Both matchers apply the one rule of ``_category``: the first
rule, in rule order, whose key has exactly its value names the category.
"""

from __future__ import annotations

import logging
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence

from .errors import ConfigError, OsmParseError, PipelineError, decimal, json_document

logger = logging.getLogger(__name__)

EARTH_RADIUS_M = 6_371_008.8


@dataclass
class OsmElement:
    element_id: int
    kind: str  # "node" or "way"
    lat: float
    lon: float
    tags: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class TagRule:
    category: str
    key: str
    value: str

    def __post_init__(self):
        if not (self.category and self.key and self.value):
            raise PipelineError("tag rules need non-empty category, key and value")


@dataclass(frozen=True)
class AmenityRecord:
    category: str
    element_id: int
    lat: float
    lon: float
    name: Optional[str] = None


def _require_attr(value: Optional[str], name: str, elem_id) -> str:
    if value is None:
        raise OsmParseError(f"element {elem_id}: missing attribute {name!r}")
    return value


def _float_attr(value: Optional[str], name: str, elem_id) -> float:
    raw = _require_attr(value, name, elem_id)
    v = decimal(raw)
    if v is None:
        raise OsmParseError(f"element {elem_id}: attribute {name}={raw!r} is not a number")
    return v


def _int_attr(raw: str, what: str) -> int:
    v = decimal(raw, int)
    if v is None:
        raise OsmParseError(f"{what} {raw!r} is not an integer")
    return v


def _bulk(convert, texts: list) -> list:
    """``convert`` of each text, behind one check that the texts joined pass
    ``decimal``'s text rule: a ValueError where not, a TypeError for a None."""
    if decimal("".join(texts), str) is None:
        raise ValueError("not decimal text")
    return list(map(convert, texts))


def _collect(text: str):
    """Feed ``text`` to expat and keep only what the checks and records need.

    Returns the raw ``id``, ``lat`` and ``lon`` of every ``node`` at any depth
    (three lists of strings or ``None``), and per child of the root its tag and
    its node's position in those lists, or for any other tag its raw ``id``.
    ``tag`` pairs and ``nd`` refs come keyed by the child's position, only for
    the children that have them.
    """
    ids: list[Optional[str]] = []
    lats: list[Optional[str]] = []
    lons: list[Optional[str]] = []
    kinds: list[str] = []
    where: list = []
    tagged: dict[int, dict[str, str]] = {}
    refs: dict[int, list[str]] = {}
    root = None
    depth = 0

    def start(tag: str, attrib: dict) -> None:
        nonlocal depth, root
        depth += 1
        if depth == 2:
            kinds.append(tag)
            if tag == "node":
                where.append(len(ids))
            else:
                where.append(attrib.get("id"))
                if tag == "way":
                    refs[len(where) - 1] = []
        elif depth == 3:
            if tag == "tag":
                if "k" in attrib and "v" in attrib:
                    tags = tagged.get(len(where) - 1)
                    if tags is None:
                        tags = tagged[len(where) - 1] = {}
                    tags[attrib["k"]] = attrib["v"]
            elif tag == "nd" and (ref := attrib.get("ref")):
                way = refs.get(len(where) - 1)
                if way is not None:
                    way.append(ref)
        elif depth == 1:
            root = tag
            return
        if tag == "node":
            ids.append(attrib.get("id"))
            lats.append(attrib.get("lat"))
            lons.append(attrib.get("lon"))

    def end(tag: str) -> None:
        nonlocal depth
        depth -= 1

    parser = ET.XMLParser(target=SimpleNamespace(start=start, end=end))
    try:
        parser.feed(text)
        parser.close()
    except ET.ParseError as e:
        raise OsmParseError(f"malformed XML: {e}") from None
    if root != "osm":
        raise OsmParseError(f"expected top-level <osm>, got <{root}>")
    return (ids, lats, lons), (kinds, where, tagged, refs)


def _raise_first_bad_node(ids, lats, lons) -> None:
    """Walk the nodes one by one and raise for the first whose id is missing,
    not an integer or repeated, or whose lat or lon is missing or not a
    number. The caller has already found that one is."""
    seen = set()
    for raw_id, raw_lat, raw_lon in zip(ids, lats, lons):
        elem_id = _int_attr(_require_attr(raw_id, "id", "?"), "node id")
        if elem_id in seen:
            raise OsmParseError(f"node id {elem_id} appears more than once")
        seen.add(elem_id)
        _float_attr(raw_lat, "lat", elem_id)
        _float_attr(raw_lon, "lon", elem_id)


def _elements(text: str) -> Iterator[tuple[str, int, float, float, Optional[dict]]]:
    """``(kind, id, lat, lon, tags or None)`` of each node and resolvable way
    child of the root, in document order, each checked before it is yielded."""
    (raw_ids, raw_lats, raw_lons), (kinds, where, tagged, refs) = _collect(text)
    try:
        ids = _bulk(int, raw_ids)
        lats = _bulk(float, raw_lats)
        lons = _bulk(float, raw_lons)
        position = dict(zip(ids, range(len(ids))))
    except (TypeError, ValueError):
        position = None
    if position is None or len(position) < len(raw_ids):
        _raise_first_bad_node(raw_ids, raw_lats, raw_lons)
    del raw_ids, raw_lats, raw_lons  # dropped before the elements are resolved, to lower the peak

    dropped_ways = 0
    for i, (kind, at) in enumerate(zip(kinds, where)):
        if kind == "node":
            elem_id, lat, lon = ids[at], lats[at], lons[at]
        elif kind == "way":
            elem_id = _int_attr(_require_attr(at, "id", "?"), "way id")
            try:
                members = _bulk(int, refs[i])
            except ValueError:
                members = [_int_attr(r, f"way {elem_id}: node reference") for r in refs[i]]
            if len(members) >= 2 and members[0] == members[-1]:
                members.pop()
            found = [position[r] for r in members if r in position]
            if not found:
                dropped_ways += 1
                continue
            lat = sum(lats[p] for p in found) / len(found)
            lon = sum(lons[p] for p in found) / len(found)
        else:
            continue  # relations and anything else: ignored
        if not (-90 <= lat <= 90 and -180 <= lon <= 180):  # the message only for a failure
            _check_coords(lat, lon, f"element {elem_id}")
        yield kind, elem_id, lat, lon, tagged.get(i)
    if dropped_ways:
        logger.warning("dropped %d ways with no resolvable member nodes", dropped_ways)


def parse_osm(text: str) -> list[OsmElement]:
    """Parse nodes and ways from an .osm XML document, in document order.

    Node ids must be unique. Closed ways drop the repeated last node
    reference before averaging; ways whose references resolve to no known
    nodes are dropped with a warning.
    """
    return [
        OsmElement(elem_id, kind, lat, lon, {} if tags is None else tags)
        for kind, elem_id, lat, lon, tags in _elements(text)
    ]


def amenities(text: str, rules: Sequence[TagRule]) -> list[AmenityRecord]:
    """``filter_amenities(parse_osm(text), rules)`` with no element per node:
    the same checks, and a record only for an element a rule matches."""
    return [
        AmenityRecord(category, elem_id, lat, lon, tags.get("name"))
        for _, elem_id, lat, lon, tags in _elements(text)
        if tags and (category := _category(tags, rules))
    ]


def _category(tags: dict[str, str], rules: Sequence[TagRule]) -> Optional[str]:
    """The category of the first rule whose key has exactly its value in ``tags``, or None."""
    for rule in rules:
        if tags.get(rule.key) == rule.value:
            return rule.category
    return None


def _check_coords(lat: float, lon: float, where: str) -> None:
    if not (-90 <= lat <= 90 and -180 <= lon <= 180):
        raise OsmParseError(f"{where}: coordinates ({lat}, {lon}) out of range")


def check_center(center_lat: float, center_lon: float, radius_m: float) -> None:
    """Reject a center outside ±90° latitude and ±180° longitude, or a radius
    that is not a finite number >= 0."""
    _check_coords(center_lat, center_lon, "center")
    if not (math.isfinite(radius_m) and radius_m >= 0):
        raise ConfigError(f"radius_m must be a finite number >= 0, got {radius_m}")


def load_rules(text: str) -> list[TagRule]:
    """Rules JSON: array of {category, key, value} objects."""
    doc = json_document(text, PipelineError, "rules JSON")
    if not isinstance(doc, list):
        raise PipelineError("rules JSON must be an array")
    for i, r in enumerate(doc):
        if not isinstance(r, dict) or not all(
            isinstance(r.get(f), str) for f in ("category", "key", "value")
        ):
            raise PipelineError(f"rules entry #{i}: needs string 'category', 'key' and 'value'")
    return [TagRule(r["category"], r["key"], r["value"]) for r in doc]


def filter_amenities(
    elements: Sequence[OsmElement], rules: Sequence[TagRule]
) -> list[AmenityRecord]:
    """Keep the elements a rule matches (``_category``)."""
    return [
        AmenityRecord(category, el.element_id, el.lat, el.lon, el.tags.get("name"))
        for el in elements
        if (category := _category(el.tags, rules))
    ]


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters on a sphere of radius 6371008.8 m."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def count_within_radius(
    amenities: Sequence[AmenityRecord],
    center_lat: float,
    center_lon: float,
    radius_m: float,
) -> tuple[dict[str, int], list[tuple[AmenityRecord, float]]]:
    """Per-category counts of amenities within radius_m of the center, plus
    the matched records with their distances."""
    check_center(center_lat, center_lon, radius_m)
    counts = {rec.category: 0 for rec in amenities}
    matched = []
    for rec in amenities:
        d = haversine_m(center_lat, center_lon, rec.lat, rec.lon)
        if d <= radius_m:
            counts[rec.category] += 1
            matched.append((rec, d))
    return counts, matched
