"""Correctness checks on one synth+run op, independent of popvol's own code.

``check_op`` returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

# what synth writes, then what run writes
OUTPUTS = (
    "dsm.asc",
    "footprints.geojson",
    "dtm.asc",
    "ground_mask.asc",
    "heights.csv",
    "estimates.csv",
    "validation.csv",
    "model.obj",
    "amenities.csv",
    "amenities_summary.csv",
    "summary.json",
)

HEIGHT_TOLERANCE_M = 0.2
FLOOR_HEIGHT_M = 3.0
EARTH_RADIUS_M = 6_371_008.8
DIGESTS_FILE = Path(__file__).with_name("demo_digests.json")


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every expected output that exists."""
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in OUTPUTS
        if (out_dir / name).is_file()
    }


def demo_digests(seed: int) -> dict[str, str] | None:
    """Recorded digests of the shipped demo outputs, for the seed they were made at."""
    doc = json.loads(DIGESTS_FILE.read_text())
    return doc["digests"] if seed == doc["seed"] else None


def _haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def expected_amenities(site: Path) -> dict[str, int]:
    """Brute-force count of rule-matching nodes and closed-way centroids
    within the configured radius, read straight from the site's own files."""
    cfg = json.loads((site / "config.json").read_text())
    rules = json.loads((site / cfg["rules"]).read_text())
    root = ET.parse(site / cfg["osm"]).getroot()
    coords = {int(n.get("id")): (float(n.get("lat")), float(n.get("lon"))) for n in root.iter("node")}
    counts: dict[str, int] = {}
    for el in root:
        if el.tag == "node":
            lat, lon = coords[int(el.get("id"))]
        elif el.tag == "way":
            refs = [int(nd.get("ref")) for nd in el.findall("nd")]
            if len(refs) >= 2 and refs[0] == refs[-1]:
                refs = refs[:-1]
            pts = [coords[r] for r in refs if r in coords]
            if not pts:
                continue
            lat = sum(p[0] for p in pts) / len(pts)
            lon = sum(p[1] for p in pts) / len(pts)
        else:
            continue
        tags = {t.get("k"): t.get("v") for t in el.findall("tag")}
        category = next((r["category"] for r in rules if tags.get(r["key"]) == r["value"]), None)
        if category is None:
            continue
        counts.setdefault(category, 0)
        d = _haversine_m(cfg["center_lat"], cfg["center_lon"], lat, lon)
        if d <= cfg["radius_m"]:
            counts[category] += 1
    return counts


def _rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def check_op(
    out_dir: Path,
    returncodes: dict[str, int],
    scene: dict,
    amenities: dict[str, int],
    reference: dict[str, str] | None,
) -> list[str]:
    """Check one op's outputs in ``out_dir``.

    ``reference`` holds the digests every output must match (the run's first
    op, or the recorded demo digests); None skips the byte comparison.
    """
    problems = [f"{cmd} exited {rc}" for cmd, rc in returncodes.items() if rc]
    missing = [name for name in OUTPUTS if not (out_dir / name).is_file()]
    if missing:
        return problems + [f"missing outputs: {', '.join(missing)}"]

    if reference is not None:
        got = digests(out_dir)
        problems += [f"{name} differs from the reference" for name in OUTPUTS if got[name] != reference.get(name)]

    truth = {p["id"]: float(p["height_m"]) for p in scene["prisms"]}
    heights = {r["id"]: float(r["height_m"]) for r in _rows(out_dir / "heights.csv") if r["height_m"]}
    floors = {r["id"]: int(r["floors"]) for r in _rows(out_dir / "estimates.csv")}
    for bid, true_h in truth.items():
        if bid not in heights:
            problems.append(f"{bid}: no height")
            continue
        if abs(heights[bid] - true_h) > HEIGHT_TOLERANCE_M:
            problems.append(f"{bid}: height {heights[bid]} vs true {true_h}")
        # noise can tip a height that sits close to a floor boundary
        if abs(true_h - FLOOR_HEIGHT_M * round(true_h / FLOOR_HEIGHT_M)) <= HEIGHT_TOLERANCE_M:
            continue
        want = max(1, math.ceil(true_h / FLOOR_HEIGHT_M))
        if floors.get(bid) != want:
            problems.append(f"{bid}: {floors.get(bid)} floors, want {want}")

    counts = {r["category"]: int(r["count"]) for r in _rows(out_dir / "amenities_summary.csv")}
    if counts != amenities:
        problems.append(f"amenity counts {counts} != brute force {amenities}")
    return problems
