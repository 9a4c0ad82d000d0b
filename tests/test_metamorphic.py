"""Metamorphic relations of the whole height pipeline.

Flipping a scene north-south or east-west, transposing it about the
anti-diagonal (x and y swapped), or raising its DSM by 1,000 m changes no
building's cells or heights, so ``run`` must write byte-identical
``heights.csv`` and ``estimates.csv``. The scene is noisy and holds more
than ``MIN_SPLIT_CELLS`` cells, and it is filtered in two row bands with the
PMF halo, so a band, halo or rasterizer asymmetry shows here.
"""

import dataclasses
import json

import pytest

from popvol import _bands
from popvol.cli import main
from popvol.footprints import footprints_to_geojson, parse_footprints
from popvol.grid import Grid, GridGeoref, read_ascii_grid, write_ascii_grid

from conftest import rectangle_ring, split_into

NCOLS, NROWS = 400, 300
OUTPUTS = ("heights.csv", "estimates.csv")
# a lattice of 42 buildings, 8-32 m by 8-34 m: some cross the row where two
# bands meet, and each edge lies on a cell boundary, so no cell center is on one
SCENE = {
    "georef": {"ncols": NCOLS, "nrows": NROWS, "xll": 0.0, "yll": 0.0, "cellsize": 1.0},
    "terrain": {"origin_elev": 50.0, "grad_x": 0.02, "grad_y": -0.01},
    "prisms": [
        {"id": f"B{i}_{j}", "type_label": "TypeA", "unit_area_m2": 80.0,
         "ring": rectangle_ring(x, y, 8 + (3 * i + 5 * j) % 25, 8 + (7 * i + 2 * j) % 27),
         "height_m": 4.2 + (5 * i + 3 * j) % 11 * 2.3}
        for j, y in enumerate(range(8, 290, 47))
        for i, x in enumerate(range(6, 390, 55))
    ],
    "noise_amplitude_m": 0.3,
    "seed": 11,
}
# each relation: (the DSM array's transform, the footprint position's transform)
RELATIONS = {
    "north_south_flip": (lambda a: a[::-1], lambda x, y: (x, NROWS - y)),
    "east_west_flip": (lambda a: a[:, ::-1], lambda x, y: (NCOLS - x, y)),
    "anti_diagonal_transpose": (lambda a: a[::-1, ::-1].T, lambda x, y: (y, x)),
    "raised_1000_m": (lambda a: a + 1000.0, lambda x, y: (x, y)),
}


def _run(site, dsm, footprints) -> dict[str, bytes]:
    """The height outputs of ``run`` on ``dsm`` and ``footprints`` in ``site``."""
    site.mkdir()
    (site / "dsm.asc").write_text(write_ascii_grid(dsm))
    (site / "fp.geojson").write_text(footprints_to_geojson(footprints))
    config = {"dsm": "dsm.asc", "footprints": "fp.geojson", "out_dir": "out"}
    (site / "config.json").write_text(json.dumps(config))
    with split_into(2):
        assert main(["run", "--config", str(site / "config.json")]) == 0
    return {name: (site / "out" / name).read_bytes() for name in OUTPUTS}


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """The scene's DSM and footprints, and the outputs of ``run`` on them."""
    site = tmp_path_factory.mktemp("scene")
    (site / "scene.json").write_text(json.dumps(SCENE))
    assert main([
        "synth", "--scene", str(site / "scene.json"),
        "--out-dsm", str(site / "dsm.asc"), "--out-footprints", str(site / "fp.geojson"),
    ]) == 0
    dsm = read_ascii_grid((site / "dsm.asc").read_bytes())
    footprints = parse_footprints((site / "fp.geojson").read_text())
    return dsm, footprints, _run(site / "base", dsm, footprints)


@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_relation_keeps_heights_and_estimates(scene, tmp_path, relation):
    dsm, footprints, expected = scene
    assert dsm.data.size >= _bands.MIN_SPLIT_CELLS
    grid_map, point_map = RELATIONS[relation]
    data = grid_map(dsm.data)
    nrows, ncols = data.shape
    moved = Grid(GridGeoref(ncols, nrows, 0.0, 0.0, 1.0), data, dsm.nodata)
    moved_footprints = [
        dataclasses.replace(fp, ring=[point_map(x, y) for x, y in fp.ring]) for fp in footprints
    ]
    assert _run(tmp_path / relation, moved, moved_footprints) == expected
