"""The batched scanline rasterizer against the per-footprint meshgrid test it
replaced, and guards on how the pipeline uses it."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popvol.footprints
import popvol.synth
from popvol import (
    EmptySelectionError,
    EstimationConfig,
    Footprint,
    FootprintError,
    GridGeoref,
    SyntheticScene,
    rasterize_polygon,
    synthesize_dsm,
)
from popvol.cli import estimate_buildings
from popvol.footprints import rasterize_footprints

from conftest import make_grid, rectangle_ring


def _points_in_ring(xs, ys, ring):
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


def _meshgrid_reference(f, georef):
    """One footprint's cells by testing every nudged cell center of its
    bounding box (widened by a cell) against every edge; ``(0, 2)`` when none."""
    xs = np.array([p[0] for p in f.ring])
    ys = np.array([p[1] for p in f.ring])
    cs = georef.cellsize
    col_lo = max(0, int(math.floor((xs.min() - georef.xll) / cs)) - 1)
    col_hi = min(georef.ncols - 1, int(math.ceil((xs.max() - georef.xll) / cs)) + 1)
    row_bot = max(0, int(math.floor((ys.min() - georef.yll) / cs)) - 1)
    row_top = min(georef.nrows - 1, int(math.ceil((ys.max() - georef.yll) / cs)) + 1)
    if col_lo > col_hi or row_bot > row_top:
        return np.zeros((0, 2), dtype=np.int64)
    eps = 1e-9 * cs
    cols = np.arange(col_lo, col_hi + 1)
    rows_s = np.arange(row_bot, row_top + 1)
    cx = georef.xll + (cols + 0.5) * cs + eps
    cy = georef.yll + (rows_s + 0.5) * cs + eps
    gx, gy = np.meshgrid(cx, cy)
    inside = _points_in_ring(gx.ravel(), gy.ravel(), f.ring).reshape(gx.shape)
    sel_rows_s, sel_cols = np.nonzero(inside)
    return np.column_stack((georef.nrows - 1 - rows_s[sel_rows_s], cols[sel_cols]))


def _snap(draw, v, origin, cs):
    """``v`` as drawn, on a multiple of half a cell (edges through cell
    centers), or on a nudged cell center exactly."""
    kind = draw(st.sampled_from(["free", "half", "nudged"]))
    if kind == "half":
        return origin + round((v - origin) / (cs / 2)) * (cs / 2)
    if kind == "nudged":
        return origin + (math.floor((v - origin) / cs) + 0.5) * cs + 1e-9 * cs
    return v


@st.composite
def _batches(draw):
    """A grid and up to 6 footprints: star-shaped rings of 3-8 vertices, some
    partly or wholly off the grid, some copied, shrunk inside or shifted off
    an earlier one. Rings that snapping made invalid are dropped, so a batch
    may be empty."""
    cs = draw(st.sampled_from([1.0, 0.5, 2.0, 0.3, 1.7]))
    ref = GridGeoref(
        draw(st.integers(1, 24)), draw(st.integers(1, 24)),
        draw(st.sampled_from([0.0, -3.3, 10.1, 512.75])),
        draw(st.sampled_from([0.0, 5.05, -7.2])), cs,
    )
    w, h = ref.ncols * cs, ref.nrows * cs
    rings = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "equal", "inside", "shifted"])) if rings else "free"
        if kind == "free":
            x0 = ref.xll + draw(st.floats(-0.3, 1.3)) * w
            y0 = ref.yll + draw(st.floats(-0.3, 1.3)) * h
            n = draw(st.integers(3, 8))
            angles = sorted(draw(st.lists(
                st.floats(0, 2 * math.pi, exclude_max=True), min_size=n, max_size=n, unique=True
            )))
            ring = []
            for t in angles:
                r = draw(st.floats(0.3, 8.0)) * cs
                ring.append((_snap(draw, x0 + r * math.cos(t), ref.xll, cs),
                             _snap(draw, y0 + r * math.sin(t), ref.yll, cs)))
        else:
            ring = draw(st.sampled_from(rings))
            if kind == "inside":
                mx = sum(p[0] for p in ring) / len(ring)
                my = sum(p[1] for p in ring) / len(ring)
                ring = [(mx + 0.5 * (x - mx), my + 0.5 * (y - my)) for x, y in ring]
            elif kind == "shifted":
                dx, dy = draw(st.integers(-6, 6)) * cs / 2, draw(st.integers(-6, 6)) * cs / 2
                ring = [(x + dx, y + dy) for x, y in ring]
        rings.append(ring)
    footprints = []
    for k, ring in enumerate(rings):
        try:
            footprints.append(Footprint(f"F{k}", "T", ring))
        except FootprintError:
            pass
    return ref, footprints


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_batches())
def test_batched_cells_equal_the_meshgrid_reference(batch):
    ref, footprints = batch
    got = list(rasterize_footprints(footprints, ref))
    assert len(got) == len(footprints)
    for f, cells in zip(footprints, got):
        expected = _meshgrid_reference(f, ref)
        assert cells.dtype == expected.dtype and cells.shape == expected.shape
        assert cells.tolist() == expected.tolist()  # same cells, same order
        if len(expected):
            assert rasterize_polygon(f, ref).tolist() == expected.tolist()
        else:
            with pytest.raises(EmptySelectionError, match=f.id):
                rasterize_polygon(f, ref)


def test_empty_batches():
    ref = GridGeoref(6, 5, 0.0, 0.0, 1.0)
    assert list(rasterize_footprints([], ref)) == []
    dsm = synthesize_dsm(SyntheticScene(georef=ref)).dsm
    assert estimate_buildings(dsm, dsm, [], EstimationConfig()) == ([], [], [])


def test_estimate_holds_one_footprints_cells_at_a_time():
    """50 identical footprints over a 200 x 200 grid: each selects 40,000
    cells (0.64 MB as int64 pairs), all of them together 32 MB. Only the top
    row holds data, so the heights themselves cost little."""
    data = np.full((200, 200), np.nan)
    data[0] = 12.0
    dsm = make_grid(data)
    dtm = make_grid(np.zeros((200, 200)))
    fps = [Footprint(f"B{k}", "T", rectangle_ring(0, 0, 200, 200), unit_area_m2=80.0)
           for k in range(50)]
    tracemalloc.start()
    try:
        heights, _, _ = estimate_buildings(dsm, dtm, fps, EstimationConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [rec.valid_cells for _, rec in heights] == [200] * 50
    assert peak < 8_000_000


def _per_footprint_call(*args, **kwargs):
    raise AssertionError("a footprint was rasterized on its own")


def test_synth_and_estimate_rasterize_in_one_batch(site_scene, monkeypatch):
    off_grid = Footprint("off", "T", rectangle_ring(900, 900, 5, 5))
    footprints = [fp for fp, _ in site_scene.prisms] + [off_grid]

    def outputs():
        result = synthesize_dsm(site_scene)
        heights, _, warnings = estimate_buildings(
            result.dsm, result.truth_dtm, footprints, EstimationConfig()
        )
        return result.dsm.data.tobytes(), heights, warnings

    expected = outputs()
    monkeypatch.setattr(popvol.footprints, "rasterize_polygon", _per_footprint_call)
    monkeypatch.setattr(popvol.synth, "rasterize_polygon", _per_footprint_call)
    assert outputs() == expected
    assert len(expected[1]) == len(site_scene.prisms)
    assert expected[2] == ["footprint 'off' selects no raster cells"]
