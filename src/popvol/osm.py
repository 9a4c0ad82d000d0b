"""OpenStreetMap XML parsing, tag-rule amenity filtering, radius counts.

Handles the plain .osm XML layout: <node id lat lon> with nested <tag k v>,
<way id> with nested <nd ref> and <tag>. Ways are reduced to the arithmetic
centroid of their member nodes; relations are ignored. Distances use the
haversine great-circle formula on a spherical Earth.

``parse_osm`` reads the text in one expat pass and builds no element tree: it
keeps each ``node``'s id and coordinates (at any depth) and each root child's
tag, id, ``tag`` pairs and ``nd`` refs, then resolves nodes and ways in two
passes over those records, so a way may reference a later node. Errors wait
for the end of the text, in this order: malformed XML; a root other than
``<osm>``; the first bad node in document order; the first bad root child
(way id, node reference, coordinates out of range) in document order.
"""

from __future__ import annotations

import json
import logging
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ConfigError, OsmParseError, PipelineError

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
    try:
        return float(raw)
    except ValueError:
        raise OsmParseError(
            f"element {elem_id}: attribute {name}={raw!r} is not a number"
        ) from None


def _int_attr(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise OsmParseError(f"{what} {raw!r} is not an integer") from None


class _Records:
    """expat target holding the records ``parse_osm`` resolves, and no elements."""

    def __init__(self):
        self.depth = 0
        self.root: Optional[str] = None
        self.nodes: list[tuple[Optional[str], Optional[str], Optional[str]]] = []
        self.children: list[tuple[str, Optional[str], dict, Optional[list]]] = []

    def start(self, tag: str, attrib: dict) -> None:
        self.depth += 1
        if self.depth == 1:
            self.root = tag
            return
        if tag == "node":
            self.nodes.append((attrib.get("id"), attrib.get("lat"), attrib.get("lon")))
        if self.depth == 2:
            self.children.append((tag, attrib.get("id"), {}, [] if tag == "way" else None))
        elif self.depth == 3:
            _, _, tags, refs = self.children[-1]
            if tag == "tag" and "k" in attrib and "v" in attrib:
                tags[attrib["k"]] = attrib["v"]
            elif tag == "nd" and refs is not None and (ref := attrib.get("ref")):
                refs.append(ref)

    def end(self, tag: str) -> None:
        self.depth -= 1


def parse_osm(text: str) -> list[OsmElement]:
    """Parse nodes and ways from an .osm XML document, in document order.

    Node ids must be unique. Closed ways drop the repeated last node
    reference before averaging; ways whose references resolve to no known
    nodes are dropped with a warning.
    """
    records = _Records()
    parser = ET.XMLParser(target=records)
    try:
        parser.feed(text)
        parser.close()
    except ET.ParseError as e:
        raise OsmParseError(f"malformed XML: {e}") from None
    if records.root != "osm":
        raise OsmParseError(f"expected top-level <osm>, got <{records.root}>")

    nodes: dict[int, tuple[float, float]] = {}
    for raw_id, raw_lat, raw_lon in records.nodes:
        elem_id = _int_attr(_require_attr(raw_id, "id", "?"), "node id")
        if elem_id in nodes:
            raise OsmParseError(f"node id {elem_id} appears more than once")
        nodes[elem_id] = (
            _float_attr(raw_lat, "lat", elem_id),
            _float_attr(raw_lon, "lon", elem_id),
        )
    records.nodes = []  # dropped before the elements are built, to lower the peak

    elements: list[OsmElement] = []
    dropped_ways = 0
    for tag, raw_id, tags, refs in records.children:
        if tag == "node":
            elem_id = int(raw_id)
            lat, lon = nodes[elem_id]
            _check_coords(lat, lon, f"element {elem_id}")
            elements.append(OsmElement(elem_id, "node", lat, lon, tags))
        elif tag == "way":
            elem_id = _int_attr(_require_attr(raw_id, "id", "?"), "way id")
            what = f"way {elem_id}: node reference"
            refs = [_int_attr(r, what) for r in refs]
            if len(refs) >= 2 and refs[0] == refs[-1]:
                refs = refs[:-1]
            coords = [nodes[r] for r in refs if r in nodes]
            if not coords:
                dropped_ways += 1
                continue
            lat = sum(c[0] for c in coords) / len(coords)
            lon = sum(c[1] for c in coords) / len(coords)
            _check_coords(lat, lon, f"element {elem_id}")
            elements.append(OsmElement(elem_id, "way", lat, lon, tags))
        # relations and anything else: ignored
    if dropped_ways:
        logger.warning("dropped %d ways with no resolvable member nodes", dropped_ways)
    return elements


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
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise PipelineError(f"invalid rules JSON: {e}") from None
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
    """Keep elements matching a rule exactly (tags[key] == value); the first
    matching rule in rule order assigns the category."""
    records = []
    for el in elements:
        for rule in rules:
            if el.tags.get(rule.key) == rule.value:
                records.append(
                    AmenityRecord(
                        rule.category, el.element_id, el.lat, el.lon, el.tags.get("name")
                    )
                )
                break
    return records


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
