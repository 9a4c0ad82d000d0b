"""Building footprints: GeoJSON parsing and writing, rasterization, zonal height.

Footprints are single exterior rings in the same projected CRS as the rasters
(meters). ``footprint_record`` reads a GeoJSON feature's record (id, optional
properties, ring) into a ``Footprint``, and a synthetic scene's prism alike.
Rasterization uses the cell-center even-odd rule with a fixed +1e-9 *
cellsize nudge on the test point, which resolves boundary-grazing centers
deterministically without exact predicates.

One scanline pass rasterizes a batch of footprints. A ring edge crosses the
row of nudged center ``cy`` when ``(y1 > cy) != (y2 > cy)``, at ``x_at = (x2 -
x1) * (cy - y1) / (y2 - y1) + x1``. Sorted per (footprint, row), crossings 2j
and 2j+1 bound a span of the span table (footprint, row, col_lo, width): the
cells with an odd number of crossings at or left of their nudged center. The
table feeds two expansions: ``rasterize_footprints`` expands one footprint's
spans at a time, so a caller holds one footprint's cells at once, and the
synthetic-scene painter expands every span in one ``np.repeat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import JSON_NUMBERS, ConfigError, FootprintError, json_document, json_number
from .errors import EmptySelectionError, InsufficientCoverageError
from .grid import Grid, GridGeoref

DEFAULT_HEIGHT_PERCENTILE = 90.0
DEFAULT_MIN_CELLS = 4


def _signed_area(ring: Sequence[tuple[float, float]]) -> float:
    a = 0.0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        a += x1 * y2 - x2 * y1
    return 0.5 * a


def _orient(a, b, c) -> float:
    """Twice the signed area of the triangle abc: > 0 when c is left of ab."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_meet(p, q, r, s) -> bool:
    """Whether the closed segments pq and rs share a point: neither has both
    ends strictly on one side of the other's line, and segments on one line
    overlap, their points ordered along it as (x, y) tuples."""
    d1, d2, d3, d4 = _orient(r, s, p), _orient(r, s, q), _orient(p, q, r), _orient(p, q, s)
    if d1 == d2 == d3 == d4 == 0:
        return max(min(p, q), min(r, s)) <= min(max(p, q), max(r, s))
    return not (d1 > 0 < d2 or d1 < 0 > d2 or d3 > 0 < d4 or d3 < 0 > d4)


def normalize_ring(ring, label: str) -> list[tuple[float, float]]:
    """Validate a vertex sequence and return it open and counter-clockwise.

    Drops a repeated closing vertex, requires finite coordinates, at least 3
    distinct vertices and a positive area within the float range. No two
    edges that share no vertex may meet, not even at a point or along a
    stretch, so the shoelace area is the area the even-odd rule fills.
    """
    pts = [(float(x), float(y)) for x, y in ring]
    for k, (x, y) in enumerate(pts):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise FootprintError(f"{label}: vertex #{k} is not finite")
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(pts) < 3:
        raise FootprintError(f"{label}: ring needs at least 3 vertices, got {len(pts)}")
    area = _signed_area(pts)
    if not math.isfinite(area):
        raise FootprintError(f"{label}: ring area overflows the float range")
    if area == 0:
        raise FootprintError(f"{label}: ring has zero area")
    if area < 0:
        pts.reverse()

    n = len(pts)
    for i in range(n):
        # edge i runs from vertex i to vertex i + 1; edges i - 1 and i + 1 share one of them
        for j in range(i + 2, n - (i == 0)):
            if _segments_meet(pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]):
                raise FootprintError(f"{label}: ring is self-intersecting")
    return pts


@dataclass
class Footprint:
    """One building outline with its dwelling-unit metadata."""

    id: str
    type_label: str
    ring: list[tuple[float, float]]
    unit_area_m2: Optional[float] = None
    units_per_floor_override: Optional[int] = None

    def __post_init__(self):
        self.ring = normalize_ring(self.ring, label=f"footprint {self.id!r}")
        area = self.unit_area_m2
        if area is not None and not (area > 0 and math.isfinite(area)):
            raise FootprintError(f"footprint {self.id!r}: unit_area_m2 must be finite and > 0")
        if self.units_per_floor_override is not None and self.units_per_floor_override < 1:
            raise FootprintError(f"footprint {self.id!r}: units_per_floor must be >= 1")


@dataclass
class BuildingHeightRecord:
    """Per-building height statistic extracted from the object-height raster."""

    id: str
    height_m: float
    footprint_area_m2: float
    valid_cells: int


def parse_footprints(text: str) -> list[Footprint]:
    """Read a GeoJSON FeatureCollection of Polygon features.

    Each feature needs an ``id`` property; ``type_label`` (``""`` when
    absent), ``unit_area_m2`` and ``units_per_floor`` are optional. Holes,
    non-Polygon geometries and duplicate ids are rejected.
    """
    doc = json_document(text, FootprintError, "JSON")
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise FootprintError("expected a GeoJSON FeatureCollection")

    features = doc.get("features", [])
    if not isinstance(features, list):
        raise FootprintError("'features' must be a list")

    footprints: list[Footprint] = []
    seen: set[str] = set()
    for i, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise FootprintError(f"feature #{i}: not a JSON object")
        props = feature.get("properties") or {}
        if not isinstance(props, dict):
            raise FootprintError(f"feature #{i}: 'properties' is not a JSON object")
        if "id" not in props:
            raise FootprintError(f"feature #{i}: missing 'id' property")
        fid = text_property(props["id"], "id", f"feature #{i}")
        geom = feature.get("geometry") or {}
        if not isinstance(geom, dict):
            raise FootprintError(f"feature {fid!r}: 'geometry' is not a JSON object")
        gtype = geom.get("type")
        if gtype != "Polygon":
            raise FootprintError(
                f"feature {fid!r}: unsupported geometry type {gtype!r} (Polygon only)"
            )
        rings = geom.get("coordinates") or []
        if not isinstance(rings, list) or not all(isinstance(r, list) for r in rings):
            raise FootprintError(f"feature {fid!r}: 'coordinates' must be a list of rings")
        if len(rings) == 0:
            raise FootprintError(f"feature {fid!r}: empty polygon")
        if len(rings) > 1:
            raise FootprintError(f"feature {fid!r}: polygon holes are not supported")
        if fid in seen:
            raise FootprintError(f"duplicate footprint id {fid!r}")
        seen.add(fid)

        footprints.append(footprint_record(fid, props, rings[0], f"feature {fid!r}"))
    return footprints


_JSON_KINDS = {type(None): "null", bool: "a boolean", dict: "an object", list: "an array"}


def text_property(value, name: str, label: str) -> str:
    """A footprint's ``id`` or ``type_label`` as text: a JSON string as it
    is, a number as ``str`` gives it. Null, a boolean, an object or an array
    is a FootprintError."""
    if isinstance(value, str):
        return value
    if type(value) in JSON_NUMBERS:
        return str(value)
    raise FootprintError(
        f"{label}: {name!r} must be a string or a number, got {_JSON_KINDS[type(value)]}"
    )


def footprint_record(
    fid: str, props: dict, points, label: str, default_type: str = ""
) -> Footprint:
    """The Footprint ``fid`` of a GeoJSON feature or a scene prism; errors
    start with ``label``. ``props`` may hold a ``type_label`` (``text_property``,
    ``default_type`` where absent), a ``unit_area_m2`` and a ``units_per_floor``
    (a finite and a whole ``json_number``). ``points`` are GeoJSON positions:
    two or more JSON numbers, the first two x and y. Any other value is a
    FootprintError; ``Footprint`` checks the ranges and that x and y are finite."""
    unit_area, units_per_floor = props.get("unit_area_m2"), props.get("units_per_floor")
    if unit_area is not None:
        unit_area = float(json_number(unit_area, f"{label}: unit_area_m2", FootprintError))
    if units_per_floor is not None:
        units_per_floor = json_number(
            units_per_floor, f"{label}: units_per_floor", FootprintError, whole=True
        )
    type_label = text_property(props.get("type_label", default_type), "type_label", label)
    ring = []
    for k, p in enumerate(points):
        # an inline type test: a helper call per vertex is a cost on dense scenes
        if not (isinstance(p, list) and len(p) >= 2
                and type(p[0]) in JSON_NUMBERS and type(p[1]) in JSON_NUMBERS):
            raise FootprintError(f"{label}: vertex #{k} is not an [x, y] pair of numbers")
        ring.append((p[0], p[1]))
    return Footprint(fid, type_label, ring, unit_area, units_per_floor)


# json.dumps(collection, indent=2) of one feature; a vertex is a number pair
_FEATURE = """\
    {
      "type": "Feature",
      "properties": {
        "id": %s,
        "type_label": %s%s
      },
      "geometry": {
        "type": "Polygon",
        "coordinates": [
          [
%s
          ]
        ]
      }
    }"""
_VERTEX = "            [\n              %r,\n              %r\n            ]"


def footprints_to_geojson(footprints: Sequence[Footprint]) -> str:
    """The FeatureCollection of ``footprints``, each ring closed, as the text
    ``json.dumps(doc, indent=2) + "\\n"`` gives, written from the per-feature
    template ``_FEATURE``: strings through ``json``'s own ASCII escaper, numbers
    by the ``int``/``float`` ``__repr__`` that ``json`` uses."""
    features = []
    for fp in footprints:
        extra = ""
        if fp.unit_area_m2 is not None:
            extra += ',\n        "unit_area_m2": ' + _number(fp.unit_area_m2)
        if fp.units_per_floor_override is not None:
            extra += ',\n        "units_per_floor": ' + _number(fp.units_per_floor_override)
        ring = ",\n".join([_VERTEX % p for p in fp.ring + fp.ring[:1]])
        features.append(_FEATURE % (
            encode_basestring_ascii(fp.id), encode_basestring_ascii(fp.type_label), extra, ring
        ))
    body = "[\n" + ",\n".join(features) + "\n  ]" if features else "[]"
    return '{\n  "type": "FeatureCollection",\n  "features": ' + body + "\n}\n"


def _number(v) -> str:
    return float.__repr__(v) if isinstance(v, float) else int.__repr__(v)


def footprint_area(f: Footprint) -> float:
    """Planimetric (shoelace) area of the footprint in square meters."""
    return abs(_signed_area(f.ring))


def span_table(
    footprints: Sequence[Footprint], georef: GridGeoref
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The spans of the cells of ``georef`` whose nudged center lies inside
    each footprint, as four integer arrays (footprint, row, col_lo, width):
    span k covers columns ``col_lo[k]`` to ``col_lo[k] + width[k] - 1`` of row
    ``row[k]``, counted from the north. Spans are ordered by footprint index,
    then rows south to north, then columns; a span may be empty."""
    cs = georef.cellsize
    eps = 1e-9 * cs
    # every ring edge as (footprint index, x1, y1, x2, y2): vertex k to vertex
    # k + 1, and a ring's last vertex back to its first
    sizes = np.array([len(f.ring) for f in footprints], np.intp)
    xy = np.fromiter(
        chain.from_iterable(chain.from_iterable(f.ring for f in footprints)),
        np.float64, 2 * sizes.sum(),
    ).reshape(-1, 2)
    owner = np.repeat(np.arange(len(footprints)), sizes)
    after = np.arange(1, len(xy) + 1)
    after[np.cumsum(sizes) - 1] -= sizes
    (x1, y1), (x2, y2) = xy.T, xy[after].T

    # candidate rows, counted from the south: each edge's y-range widened by a row
    lo = np.clip(np.floor((np.minimum(y1, y2) - georef.yll) / cs) - 1, 0, georef.nrows)
    hi = np.minimum(np.ceil((np.maximum(y1, y2) - georef.yll) / cs) + 1, georef.nrows - 1)
    count = (hi - lo + 1).clip(0).astype(np.intp)
    edge = np.repeat(np.arange(len(lo)), count)
    row = np.arange(len(edge)) - np.repeat(np.cumsum(count) - count - lo.astype(np.intp), count)
    cy = georef.row_centers()[georef.nrows - 1 - row] + eps
    hit = (y1[edge] > cy) != (y2[edge] > cy)
    edge, row, cy = edge[hit], row[hit], cy[hit]
    x_at = (x2[edge] - x1[edge]) * (cy - y1[edge]) / (y2[edge] - y1[edge]) + x1[edge]

    # one span per crossing pair
    order = np.lexsort((x_at, row, owner[edge]))
    x_at = x_at[order]
    cx = georef.col_centers() + eps
    c0 = np.searchsorted(cx, x_at[0::2])
    return (
        owner[edge][order][0::2],
        georef.nrows - 1 - row[order][0::2],
        c0,
        np.searchsorted(cx, x_at[1::2]) - c0,
    )


def rasterize_footprints(
    footprints: Sequence[Footprint], georef: GridGeoref
) -> Iterator[np.ndarray]:
    """Cells of ``georef`` whose nudged center lies inside each footprint: one
    ``(n, 2)`` integer array of (row, col) per footprint, in input order, rows
    counted from the north and listed south to north, columns ascending. A
    footprint that selects no cell gets an empty array. Each footprint's cells
    are expanded from the span table when the iterator reaches it."""
    fp, row, c0, width = span_table(footprints, georef)
    ends = np.cumsum(width)
    # (row, first column minus the span's offset among all cells)
    spans = np.column_stack((row, c0 - (ends - width)))
    bounds = np.searchsorted(fp, np.arange(len(footprints) + 1)).tolist()
    offsets = np.concatenate(([0], ends))[bounds].tolist()
    for k in range(len(footprints)):
        s = slice(bounds[k], bounds[k + 1])
        cells = np.repeat(spans[s], width[s], axis=0)
        cells[:, 1] += np.arange(offsets[k], offsets[k + 1])
        yield cells


def rasterize_polygon(f: Footprint, georef: GridGeoref) -> np.ndarray:
    """The cells of ``rasterize_footprints`` for one footprint; raises
    EmptySelectionError when it selects none."""
    cells = next(rasterize_footprints([f], georef))
    if len(cells) == 0:
        raise EmptySelectionError(f.id)
    return cells


def nearest_rank_percentile(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: rank = ceil(p/100 * n) over the sorted values,
    of which there is at least one.

    Uses integer arithmetic for the rank so that e.g. p=90, n=10 always picks
    rank 9 regardless of float rounding.
    """
    if not 0 <= percentile <= 100:
        raise ConfigError(f"percentile must be in [0, 100], got {percentile}")
    ordered = sorted(values)
    n = len(ordered)
    p_micro = round(percentile * 1_000_000)
    rank = -(-p_micro * n // 100_000_000)  # ceil division
    rank = min(max(rank, 1), n)
    return float(ordered[rank - 1])


def zonal_height(
    ndsm: Grid,
    f: Footprint,
    percentile: float = DEFAULT_HEIGHT_PERCENTILE,
    min_cells: int = DEFAULT_MIN_CELLS,
    *,
    cells: Optional[np.ndarray] = None,
) -> BuildingHeightRecord:
    """Building height = percentile of valid object-height cells under the
    footprint, clamped at zero so terrain artifacts never go negative.
    ``cells``, when given, are the footprint's from ``rasterize_footprints``."""
    if min_cells < 1:
        raise ConfigError(f"min_cells must be >= 1, got {min_cells}")
    if cells is None:
        cells = rasterize_polygon(f, ndsm.georef)
    elif len(cells) == 0:
        raise EmptySelectionError(f.id)
    values = ndsm.data[cells[:, 0], cells[:, 1]]
    values = values[~np.isnan(values)].tolist()
    if len(values) < min_cells:
        raise InsufficientCoverageError(f.id, len(values), min_cells)
    height = max(0.0, nearest_rank_percentile(values, percentile))
    return BuildingHeightRecord(f.id, height, footprint_area(f), len(values))
