import contextlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from popvol import _bands
from popvol import (
    BuildingHeightRecord,
    EstimationConfig,
    Footprint,
    Grid,
    GridGeoref,
    SyntheticScene,
    TerrainModel,
    aggregate,
    estimate_building,
)

import site_data

# `popvol.cli` binds the stage names its helpers read on the first command;
# tests call some helpers (`read_estimates_csv`, `estimate_buildings`, ...)
# without one
import popvol.cli

popvol.cli._load()


def rectangle_ring(x0: float, y0: float, width: float, depth: float) -> list[tuple[float, float]]:
    """Axis-aligned rectangle, counter-clockwise from the southwest corner."""
    return [(x0, y0), (x0 + width, y0), (x0 + width, y0 + depth), (x0, y0 + depth)]


def make_grid(values, cellsize=1.0, xll=0.0, yll=0.0, nodata=-9999.0) -> Grid:
    arr = np.asarray(values, dtype=np.float64)
    georef = GridGeoref(arr.shape[1], arr.shape[0], xll, yll, cellsize)
    return Grid(georef, arr, nodata)


@contextlib.contextmanager
def split_into(nbands: int):
    """Split every grid, however small, into ``nbands`` row bands (fewer only
    where a grid has fewer rows or the PMF halo does not fit)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_bands, "MIN_SPLIT_CELLS", 0)
        mp.setattr(_bands.os, "sched_getaffinity", lambda pid: set(range(nbands)))
        yield


_PARENT = os.getpid()


def in_child() -> bool:
    """True in a process forked from the test session."""
    return os.getpid() != _PARENT


class ExitWhenPickled:
    """Leaves the process through ``os._exit(code)`` when pickled."""

    def __init__(self, code):
        self.code = code

    def __reduce__(self):
        os._exit(self.code)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cell_set(cells) -> set[tuple[int, int]]:
    """The ``(n, 2)`` (row, col) array of ``rasterize_polygon`` as a set of pairs."""
    return set(map(tuple, cells.tolist()))


@pytest.fixture
def site_rows():
    return site_data.BUILDINGS


@pytest.fixture
def site_society():
    """Aggregated estimate over the reference site with the per-type override."""
    cfg = EstimationConfig()
    estimates = []
    for bid, type_label, height, _, width, depth, unit_area in site_data.BUILDINGS:
        fp = Footprint(
            id=bid,
            type_label=type_label,
            ring=rectangle_ring(0.0, 0.0, width, depth),
            unit_area_m2=unit_area,
            units_per_floor_override=site_data.UNITS_PER_FLOOR,
        )
        rec = BuildingHeightRecord(bid, height, width * depth, 100)
        estimates.append(estimate_building(rec, fp, cfg))
    return aggregate(estimates)


@pytest.fixture
def site_scene():
    """The reference site's buildings as prisms, eight to a row in 40 m
    slots, on a ramp with 0.1 m noise."""
    prisms = [
        (
            Footprint(
                id=bid,
                type_label=type_label,
                ring=rectangle_ring(10.0 + 40 * (k % 8), 10.0 + 40 * (k // 8), width, depth),
                unit_area_m2=unit_area,
                units_per_floor_override=site_data.UNITS_PER_FLOOR,
            ),
            height,
        )
        for k, (bid, type_label, height, _, width, depth, unit_area)
        in enumerate(site_data.BUILDINGS)
    ]
    return SyntheticScene(
        georef=GridGeoref(330, 210, 0.0, 0.0, 1.0),
        terrain=TerrainModel(50.0, 0.01, -0.005),
        prisms=prisms,
        noise_amplitude_m=0.1,
        seed=7,
    )
