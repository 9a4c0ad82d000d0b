"""Seeded inputs for the benchmark workloads.

Every function here is a pure function of its seed: the same seed gives
byte-identical files. The program under test only ever sees the files.

Scenes put rectangular prisms on a lattice with a free margin in every
lattice cell, so no two prisms overlap or touch and the terrain between them
stays visible to the terrain filter. Each prism carries an explicit
``units_per_floor``, so the ground-truth units of a type are exact sums of
``ceil(true_height / 3) * units_per_floor``.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

FLOOR_HEIGHT_M = 3.0
NOISE_AMPLITUDE_M = 0.1
# The demo site's centre and search radius; generated OSM extracts sit around it.
CENTER_LAT = 23.0225
CENTER_LON = 72.5
RADIUS_M = 2000.0
M_PER_DEG_LAT = 111_320.0

# type label -> dwelling-unit area (m2); one label per band of the default table
UNIT_AREAS = {
    "TypeA": 150.0,
    "TypeB": 87.0,
    "TypeC": 51.0,
    "TypeD": 43.1,
    "TypeE": 35.75,
}


def true_units(height_m: float, units_per_floor: int) -> int:
    return max(1, math.ceil(height_m / FLOOR_HEIGHT_M)) * units_per_floor


def lattice_scene(
    seed: int,
    size: int,
    per_side: int,
    side_m: tuple[int, int],
    height_m: tuple[float, float],
    labels: tuple[str, ...],
) -> dict:
    """A size x size scene at 1 m with per_side x per_side prisms.

    Prism sides are whole metres in ``side_m``; each prism sits at a random
    offset inside its lattice cell with at least 1 m free on every side.
    """
    rng = random.Random(f"scene-{seed}-{size}-{per_side}")
    pitch = size // per_side
    if side_m[1] + 2 > pitch:
        raise ValueError(f"prisms up to {side_m[1]} m do not fit a {pitch} m lattice")
    prisms = []
    for j in range(per_side):
        for i in range(per_side):
            w = rng.randint(*side_m)
            d = rng.randint(*side_m)
            x0 = i * pitch + rng.randint(1, pitch - w - 1)
            y0 = j * pitch + rng.randint(1, pitch - d - 1)
            label = rng.choice(labels)
            prisms.append({
                "id": f"b{j:03d}_{i:03d}",
                "type_label": label,
                "ring": [[x0, y0], [x0 + w, y0], [x0 + w, y0 + d], [x0, y0 + d]],
                "height_m": round(rng.uniform(*height_m), 1),
                "unit_area_m2": UNIT_AREAS[label],
                "units_per_floor": rng.randint(1, 8),
            })
    return {
        "georef": {"ncols": size, "nrows": size, "xll": 0.0, "yll": 0.0, "cellsize": 1.0},
        "terrain": {
            "origin_elev": round(rng.uniform(20.0, 80.0), 2),
            "grad_x": round(rng.uniform(-0.003, 0.003), 4),
            "grad_y": round(rng.uniform(-0.003, 0.003), 4),
        },
        "prisms": prisms,
        "noise_amplitude_m": NOISE_AMPLITUDE_M,
        "seed": seed,
    }


def ground_truth_csv(scene: dict) -> str:
    units: dict[str, int] = {}
    for p in scene["prisms"]:
        units[p["type_label"]] = units.get(p["type_label"], 0) + true_units(
            p["height_m"], p["units_per_floor"]
        )
    return "type_label,units\n" + "".join(f"{k},{units[k]}\n" for k in sorted(units))


def _offset_deg(north_m: float, east_m: float) -> tuple[float, float]:
    lat = CENTER_LAT + north_m / M_PER_DEG_LAT
    lon = CENTER_LON + east_m / (M_PER_DEG_LAT * math.cos(math.radians(CENTER_LAT)))
    return lat, lon


def _random_point(rng: random.Random, max_r: float) -> tuple[float, float]:
    r = max_r * math.sqrt(rng.random())
    a = rng.uniform(0.0, 2.0 * math.pi)
    return r * math.cos(a), r * math.sin(a)


def _amenity_tags(rng: random.Random, uid: int) -> list[tuple[str, str]]:
    u = rng.random()
    if u < 0.01:
        tags = [("amenity", "hospital")]
    elif u < 0.03:
        tags = [("amenity", "school")]
    elif u < 0.06:
        tags = [("amenity", rng.choice(("pharmacy", "clinic", "cafe", "kindergarten")))]
    elif u < 0.30:
        tags = [("building", "yes")]
    else:
        return []
    if rng.random() < 0.5:
        tags.append(("name", f"Place {uid}"))
    return tags


def osm_xml(seed: int, nodes: int = 60_000, ways: int = 6_000, max_r_m: float = 3000.0) -> str:
    """A plain .osm extract: free nodes, then way member nodes, then closed ways.

    Every way is a closed square of four member nodes. Elements scatter
    uniformly over a disc of ``max_r_m`` around the demo centre, so part of
    them fall outside the ``RADIUS_M`` search radius.
    """
    rng = random.Random(f"osm-{seed}")
    free = nodes - 4 * ways
    out = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6" generator="perfbench">']

    def node(nid, lat, lon, tags):
        head = f'  <node id="{nid}" lat="{lat:.7f}" lon="{lon:.7f}"'
        if not tags:
            out.append(head + "/>")
            return
        out.append(head + ">")
        out.extend(f'    <tag k="{k}" v="{v}"/>' for k, v in tags)
        out.append("  </node>")

    for nid in range(1, free + 1):
        node(nid, *_offset_deg(*_random_point(rng, max_r_m)), _amenity_tags(rng, nid))

    way_refs = []
    nid = free
    for _ in range(ways):
        north, east = _random_point(rng, max_r_m)
        half = rng.uniform(10.0, 30.0)
        refs = []
        for dn, de in ((-half, -half), (-half, half), (half, half), (half, -half)):
            nid += 1
            node(nid, *_offset_deg(north + dn, east + de), [])
            refs.append(nid)
        way_refs.append(refs)

    for k, refs in enumerate(way_refs):
        wid = 1_000_001 + k
        out.append(f'  <way id="{wid}">')
        out.append("    " + "".join(f'<nd ref="{r}"/>' for r in refs + refs[:1]))
        out.extend(f'    <tag k="{k_}" v="{v}"/>' for k_, v in _amenity_tags(rng, wid))
        out.append("  </way>")
    out.append("</osm>")
    return "\n".join(out) + "\n"


def config() -> dict:
    return {
        "dsm": "out/dsm.asc",
        "footprints": "out/footprints.geojson",
        "ground_truth": "ground_truth.csv",
        "osm": "site.osm",
        "rules": "rules.json",
        "center_lat": CENTER_LAT,
        "center_lon": CENTER_LON,
        "radius_m": RADIUS_M,
        "out_dir": "out",
        "floor_height_m": FLOOR_HEIGHT_M,
        "occupancy_rate": 1.0,
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def write_inputs(workload: str, seed: int, site: Path, demo: Path) -> dict:
    """Write scene.json, config.json, ground_truth.csv, site.osm and rules.json
    for ``workload`` into ``site``; return the scene document (the truth)."""
    if workload == "demo_site":
        scene = json.loads((demo / "scene.json").read_text())
        scene["seed"] = seed
        for name in ("config.json", "ground_truth.csv", "site.osm", "rules.json"):
            shutil.copyfile(demo / name, site / name)
    else:
        if workload == "large_raster":
            scene = lattice_scene(seed, 1000, 10, (15, 45), (4.0, 45.0), ("TypeA", "TypeB", "TypeC"))
            shutil.copyfile(demo / "site.osm", site / "site.osm")
        elif workload == "dense_blocks":
            scene = lattice_scene(seed, 500, 50, (5, 8), (4.0, 24.0), tuple(UNIT_AREAS))
            (site / "site.osm").write_text(osm_xml(seed))
        else:
            raise ValueError(f"unknown workload {workload!r}")
        shutil.copyfile(demo / "rules.json", site / "rules.json")
        (site / "config.json").write_text(_dump(config()))
        (site / "ground_truth.csv").write_text(ground_truth_csv(scene))
    (site / "scene.json").write_text(_dump(scene))
    return scene
