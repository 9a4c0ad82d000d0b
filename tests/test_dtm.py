import math
import random

import numpy as np
import pytest

from popvol import (
    DtmFilterParams,
    Footprint,
    Grid,
    GridGeoref,
    SyntheticScene,
    TerrainModel,
    morphological_opening,
    progressive_morphological_filter,
    rasterize_polygon,
    synthesize_dsm,
)
from popvol.dtm import window_sizes
from popvol.synth import rectangle_ring

from conftest import cell_set, make_grid


def brute_force_opening(data: np.ndarray, window: int) -> np.ndarray:
    """Independent reference: nested-loop min then max over square windows,
    NaN cells treated as absent."""
    k = window // 2
    nrows, ncols = data.shape

    def apply(arr, fn):
        out = np.full_like(arr, np.nan)
        for r in range(nrows):
            for c in range(ncols):
                vals = [
                    arr[i, j]
                    for i in range(max(0, r - k), min(nrows, r + k + 1))
                    for j in range(max(0, c - k), min(ncols, c + k + 1))
                    if not math.isnan(arr[i, j])
                ]
                if vals:
                    out[r, c] = fn(vals)
        return out

    return apply(apply(data, min), max)


def test_window_one_is_identity():
    g = make_grid([[1.0, 2.0], [np.nan, 4.0]])
    out = morphological_opening(g, 1)
    assert out == g


def test_constant_grid_unchanged():
    g = make_grid(np.full((9, 9), 3.25))
    for window in (3, 5, 7):
        assert np.array_equal(morphological_opening(g, window).data, g.data)


def test_spike_removed_window3():
    data = np.zeros((7, 7))
    data[3, 3] = 20.0
    g = make_grid(data)
    out = morphological_opening(g, 3)
    assert out.data[3, 3] == 0.0
    assert np.array_equal(out.data, brute_force_opening(data, 3))


def test_opening_matches_brute_force_with_nodata():
    rng = np.random.default_rng(42)
    for window in (3, 5):
        data = rng.uniform(0, 30, size=(12, 10))
        holes = rng.random(size=data.shape) < 0.15
        data[holes] = np.nan
        g = make_grid(data)
        out = morphological_opening(g, window)
        assert np.array_equal(out.data, brute_force_opening(data, window), equal_nan=True)


def test_opening_rejects_even_or_nonpositive_window():
    g = make_grid([[1.0]])
    with pytest.raises(ValueError):
        morphological_opening(g, 2)
    with pytest.raises(ValueError):
        morphological_opening(g, 0)
    with pytest.raises(ValueError):
        morphological_opening(g, -3)


def test_window_progression():
    assert window_sizes(DtmFilterParams(), 1.0) == [3, 5, 9, 17, 33, 65]
    assert window_sizes(DtmFilterParams(max_window_m=3.0), 1.0) == [3]
    assert window_sizes(DtmFilterParams(), 2.0) == [3, 5, 9, 17, 33]


def test_flat_dsm_identity_all_ground():
    g = make_grid(np.full((40, 40), 50.0))
    dtm, ground = progressive_morphological_filter(g)
    assert dtm == g
    assert ground.all()


def _prism_scene(noise=0.0, seed=0):
    ref = GridGeoref(100, 90, 0.0, 0.0, 1.0)
    fp = Footprint("P1", "TypeA", rectangle_ring(30.0, 25.0, 30.0, 30.0))
    scene = SyntheticScene(
        georef=ref,
        terrain=TerrainModel(50.0),
        prisms=[(fp, 19.8)],
        noise_amplitude_m=noise,
        seed=seed,
    )
    return scene, fp


def test_prism_removed_and_flagged():
    scene, fp = _prism_scene()
    result = synthesize_dsm(scene)
    dtm, ground = progressive_morphological_filter(result.dsm)
    assert np.nanmax(np.abs(dtm.data - 50.0)) < 0.01
    for r, c in rasterize_polygon(fp, scene.georef):
        assert not ground[r, c]


def test_ramp_without_objects_untouched():
    ref = GridGeoref(80, 60, 0.0, 0.0, 1.0)
    scene = SyntheticScene(georef=ref, terrain=TerrainModel(100.0, grad_x=0.05))
    dsm = synthesize_dsm(scene).dsm
    dtm, ground = progressive_morphological_filter(dsm)
    params = DtmFilterParams()
    assert np.nanmax(np.abs(dtm.data - dsm.data)) < params.initial_threshold_m
    assert ground.all()


def test_dtm_never_above_dsm():
    scene, _ = _prism_scene(noise=0.1, seed=9)
    dsm = synthesize_dsm(scene).dsm
    dtm, _ = progressive_morphological_filter(dsm)
    valid = dsm.valid_mask
    assert (dtm.data[valid] <= dsm.data[valid]).all()


def test_filter_idempotent_on_prism_scene():
    scene, _ = _prism_scene(noise=0.1, seed=3)
    dsm = synthesize_dsm(scene).dsm
    dtm1, _ = progressive_morphological_filter(dsm)
    dtm2, _ = progressive_morphological_filter(dtm1)
    assert np.nanmax(np.abs(dtm2.data - dtm1.data)) <= 1e-9


def test_ground_mask_means_unchanged():
    scene, _ = _prism_scene(noise=0.1, seed=5)
    dsm = synthesize_dsm(scene).dsm
    dtm, ground = progressive_morphological_filter(dsm)
    keep = ground & dsm.valid_mask
    assert np.array_equal(dtm.data[keep], dsm.data[keep])


def test_nodata_cells_stay_nodata_and_unflagged():
    data = np.full((30, 30), 10.0)
    data[0:3, 0:3] = np.nan
    data[15, 15] = 40.0  # narrow spike, removed
    g = make_grid(data)
    dtm, ground = progressive_morphological_filter(g)
    assert np.isnan(dtm.data[0:3, 0:3]).all()
    assert ground[0:3, 0:3].all()
    assert not ground[15, 15]
    assert dtm.data[15, 15] == 10.0


def test_interior_prism_cells_flagged():
    ref = GridGeoref(90, 90, 0.0, 0.0, 1.0)
    prisms = [
        (Footprint("A", "T", rectangle_ring(10.0, 10.0, 12.0, 30.0)), 5.0),
        (Footprint("B", "T", rectangle_ring(45.0, 40.0, 34.0, 20.0)), 12.0),
    ]
    scene = SyntheticScene(georef=ref, terrain=TerrainModel(20.0), prisms=prisms)
    dsm = synthesize_dsm(scene).dsm
    _, ground = progressive_morphological_filter(dsm)
    for fp, _ in prisms:
        cells = cell_set(rasterize_polygon(fp, ref))
        interior = {
            (r, c)
            for r, c in cells
            if all((r + dr, c + dc) in cells for dr in (-1, 0, 1) for dc in (-1, 0, 1))
        }
        assert interior
        for r, c in interior:
            assert not ground[r, c]


def test_param_validation():
    g = make_grid(np.zeros((5, 5)))
    with pytest.raises(ValueError):
        progressive_morphological_filter(g, DtmFilterParams(initial_window=4))
    with pytest.raises(ValueError):
        progressive_morphological_filter(g, DtmFilterParams(initial_window=1))
    with pytest.raises(ValueError, match="odd integer"):
        progressive_morphological_filter(g, DtmFilterParams(initial_window=3.5))
    with pytest.raises(ValueError):
        progressive_morphological_filter(g, DtmFilterParams(slope=-0.1))
    with pytest.raises(ValueError):
        progressive_morphological_filter(g, DtmFilterParams(initial_threshold_m=0.0))
    with pytest.raises(ValueError):
        progressive_morphological_filter(
            g, DtmFilterParams(initial_threshold_m=2.0, max_threshold_m=1.0)
        )
    with pytest.raises(ValueError):
        progressive_morphological_filter(g, DtmFilterParams(max_window_m=2.0))
