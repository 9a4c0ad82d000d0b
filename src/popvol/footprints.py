"""Building footprints: GeoJSON parsing, rasterization, zonal height extraction.

Footprints are single exterior rings in the same projected CRS as the rasters
(meters). Rasterization uses the cell-center even-odd rule with a fixed
+1e-9 * cellsize nudge on the test point, which resolves boundary-grazing
centers deterministically without exact predicates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptySelectionError, FootprintError, InsufficientCoverageError
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


def _segments_properly_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def normalize_ring(ring, label="ring") -> list[tuple[float, float]]:
    """Validate a vertex sequence and return it open and counter-clockwise.

    Drops a repeated closing vertex, requires finite coordinates, at least 3
    distinct vertices, positive area, and no self-intersection (checked
    pairwise).
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
    if area == 0:
        raise FootprintError(f"{label}: ring has zero area")
    if area < 0:
        pts.reverse()

    n = len(pts)
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share a vertex
            b1, b2 = pts[j], pts[(j + 1) % n]
            if _segments_properly_intersect(a1, a2, b1, b2):
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

    Each feature needs properties ``id`` and ``type_label``; ``unit_area_m2``
    and ``units_per_floor`` are optional. Holes, non-Polygon geometries and
    duplicate ids are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FootprintError(f"invalid JSON: {e}") from None
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
        fid = props.get("id")
        if fid is None:
            raise FootprintError(f"feature #{i}: missing 'id' property")
        fid = str(fid)
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

        unit_area = props.get("unit_area_m2")
        override = props.get("units_per_floor")
        if isinstance(unit_area, bool) or isinstance(override, bool):
            raise FootprintError(
                f"feature {fid!r}: unit_area_m2 and units_per_floor must be numbers"
            )
        if isinstance(override, float) and not override.is_integer():
            raise FootprintError(
                f"feature {fid!r}: units_per_floor must be a whole number, got {override!r}"
            )
        try:
            unit_area = float(unit_area) if unit_area is not None else None
            override = int(override) if override is not None else None
        except (TypeError, ValueError):
            raise FootprintError(
                f"feature {fid!r}: unit_area_m2 and units_per_floor must be numbers"
            ) from None
        footprints.append(
            Footprint(
                id=fid,
                type_label=str(props.get("type_label", "")),
                ring=[_position(p, fid, k) for k, p in enumerate(rings[0])],
                unit_area_m2=unit_area,
                units_per_floor_override=override,
            )
        )
    return footprints


def _position(p, fid: str, k: int) -> tuple[float, float]:
    """The x, y of a GeoJSON position: two or more JSON numbers."""
    if not (
        isinstance(p, list)
        and len(p) >= 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p[:2])
    ):
        raise FootprintError(f"feature {fid!r}: vertex #{k} is not an [x, y] pair of numbers")
    return p[0], p[1]


def footprint_area(f: Footprint) -> float:
    """Planimetric (shoelace) area of the footprint in square meters."""
    return abs(_signed_area(f.ring))


def _points_in_ring(xs: np.ndarray, ys: np.ndarray, ring) -> np.ndarray:
    """Even-odd (crossing parity) point-in-polygon test, vectorized."""
    inside = np.zeros(xs.shape, dtype=bool)
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        crosses = (y1 > ys) != (y2 > ys)
        if not crosses.any():
            continue
        x_at = (x2 - x1) * (ys - y1) / (y2 - y1) + x1
        inside ^= crosses & (xs < x_at)
    return inside


def rasterize_polygon(f: Footprint, georef: GridGeoref) -> np.ndarray:
    """Cells of ``georef`` whose nudged center lies inside the footprint, as
    an ``(n, 2)`` integer array of (row, col), rows counted from the north."""
    xs = np.array([p[0] for p in f.ring])
    ys = np.array([p[1] for p in f.ring])
    cs = georef.cellsize

    col_lo = max(0, int(math.floor((xs.min() - georef.xll) / cs)) - 1)
    col_hi = min(georef.ncols - 1, int(math.ceil((xs.max() - georef.xll) / cs)) + 1)
    row_bot = max(0, int(math.floor((ys.min() - georef.yll) / cs)) - 1)
    row_top = min(georef.nrows - 1, int(math.ceil((ys.max() - georef.yll) / cs)) + 1)
    if col_lo > col_hi or row_bot > row_top:
        raise EmptySelectionError(f.id)

    # rows counted from the south here; convert to north-first at the end
    eps = 1e-9 * cs
    cols = np.arange(col_lo, col_hi + 1)
    rows_s = np.arange(row_bot, row_top + 1)
    cx = georef.xll + (cols + 0.5) * cs + eps
    cy = georef.yll + (rows_s + 0.5) * cs + eps
    gx, gy = np.meshgrid(cx, cy)
    inside = _points_in_ring(gx.ravel(), gy.ravel(), f.ring).reshape(gx.shape)

    sel_rows_s, sel_cols = np.nonzero(inside)
    if sel_rows_s.size == 0:
        raise EmptySelectionError(f.id)
    return np.column_stack((georef.nrows - 1 - rows_s[sel_rows_s], cols[sel_cols]))


def nearest_rank_percentile(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: rank = ceil(p/100 * n) over the sorted values.

    Uses integer arithmetic for the rank so that e.g. p=90, n=10 always picks
    rank 9 regardless of float rounding.
    """
    if not 0 <= percentile <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {percentile}")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("cannot take a percentile of no values")
    p_micro = round(percentile * 1_000_000)
    rank = -(-p_micro * n // 100_000_000)  # ceil division
    rank = min(max(rank, 1), n)
    return float(ordered[rank - 1])


def zonal_height(
    ndsm: Grid,
    f: Footprint,
    percentile: float = DEFAULT_HEIGHT_PERCENTILE,
    min_cells: int = DEFAULT_MIN_CELLS,
) -> BuildingHeightRecord:
    """Building height = percentile of valid object-height cells under the
    footprint, clamped at zero so terrain artifacts never go negative."""
    if min_cells < 1:
        raise ValueError(f"min_cells must be >= 1, got {min_cells}")
    cells = rasterize_polygon(f, ndsm.georef)
    values = ndsm.data[cells[:, 0], cells[:, 1]]
    values = values[~np.isnan(values)].tolist()
    if len(values) < min_cells:
        raise InsufficientCoverageError(f.id, len(values), min_cells)
    height = max(0.0, nearest_rank_percentile(values, percentile))
    return BuildingHeightRecord(f.id, height, footprint_area(f), len(values))
