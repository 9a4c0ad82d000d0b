import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from popvol import (
    ConfigError,
    DtmFilterParams,
    Footprint,
    Grid,
    GridGeoref,
    SyntheticScene,
    TerrainModel,
    progressive_morphological_filter,
    rasterize_polygon,
    synthesize_dsm,
    write_ascii_grid,
)
from popvol.dtm import _filter, _running, window_sizes

from conftest import cell_set, make_grid, rectangle_ring


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


def opening(data: np.ndarray, window: int) -> np.ndarray:
    """The oracle opening, NaN cells absent from the window and NaN where a
    window holds nothing else: scipy's minimum filter with NaN as +inf, then
    its maximum filter with that +inf as -inf."""
    eroded = ndimage.minimum_filter(np.where(np.isnan(data), np.inf, data), size=window,
                                    mode="nearest")
    opened = ndimage.maximum_filter(np.where(eroded == np.inf, -np.inf, eroded), size=window,
                                    mode="nearest")
    return np.where(opened == -np.inf, np.nan, opened)


def reopening_filter(data: np.ndarray, windows: list[int], params: DtmFilterParams, cellsize: float):
    """The filter as Zhang et al. state it, each window thresholding the
    oracle opening of the terrain lowered so far: (terrain, flagged)."""
    terrain, flagged = data, np.zeros(data.shape, dtype=bool)
    for i, w in enumerate(windows):
        dh = params.initial_threshold_m if i == 0 else min(
            params.max_threshold_m,
            params.slope * (w - windows[i - 1]) * cellsize + params.initial_threshold_m,
        )
        opened = opening(terrain, w)
        hit = (terrain - opened) > dh
        terrain = np.where(hit, opened, terrain)
        flagged |= hit
    return terrain, flagged


def test_window_one_is_identity():
    data = np.array([[1.0, 2.0], [np.nan, 4.0]])
    assert np.array_equal(opening(data, 1), data, equal_nan=True)


def test_constant_grid_unchanged():
    data = np.full((9, 9), 3.25)
    for window in (3, 5, 7):
        assert np.array_equal(opening(data, window), data)


def test_spike_removed_window3():
    data = np.zeros((7, 7))
    data[3, 3] = 20.0
    out = opening(data, 3)
    assert out[3, 3] == 0.0
    assert np.array_equal(out, brute_force_opening(data, 3))


def test_opening_matches_brute_force_with_nodata():
    rng = np.random.default_rng(42)
    for window in (3, 5):
        data = rng.uniform(0, 30, size=(12, 10))
        holes = rng.random(size=data.shape) < 0.15
        data[holes] = np.nan
        assert np.array_equal(opening(data, window), brute_force_opening(data, window), equal_nan=True)


# scipy's filters, the separable running min/max popvol replaced, are the oracle
_PICKS = [(np.minimum, ndimage.minimum_filter), (np.maximum, ndimage.maximum_filter)]
_filter_settings = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def _filter_grids(draw, pool):
    """A grid of 1 to 30 rows and columns, a quarter of its cells random
    floats and the rest drawn from ``pool``, and an odd window up to 81
    cells, so often wider than the grid, or up to 2001 cells, so wider than
    twice the grid, where ``_running`` clips it."""
    nrows, ncols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = np.where(
        rng.random((nrows, ncols)) < 0.25,
        rng.normal(0.0, 100.0, (nrows, ncols)),
        rng.choice(np.array(pool), (nrows, ncols)),
    )
    return data, 2 * draw(st.integers(0, 40) | st.integers(41, 1000)) + 1


@_filter_settings
@given(case=_filter_grids([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf]))
@example(case=(np.array([[0.0, -0.0, np.inf, -0.0, 0.0, -np.inf, 2.5]]), 3))
@example(case=(np.array([[-0.0], [0.0], [-np.inf], [0.0], [np.inf], [-0.0]]), 5))
@example(case=(np.array([[0.0, -0.0], [-0.0, 0.0]]), 9))
@example(case=(np.arange(12.0).reshape(3, 4) % 5, 1000001))
def test_running_equals_scipy_bit_for_bit(case):
    """Same bytes as scipy with ``mode="nearest"``, so ties between 0.0 and
    -0.0 resolve alike; 1-row and 1-column grids and windows wider than the grid."""
    data, window = case
    for pick, reference in _PICKS:
        expected = reference(data, size=window, mode="nearest")
        assert _running(data, window, pick).tobytes() == expected.tobytes()


@_filter_settings
@given(case=_filter_grids([np.nan, np.nan, 0.0, -0.0, 1.0]))
def test_one_window_thresholds_the_scipy_opening(case):
    """With one window nothing is chained: ``_filter`` lowers onto the
    oracle opening, NaN cells absent from the window, with the same bytes,
    and the cells it flags are those it leaves below the surface."""
    data, window = case
    terrain = _filter(data, [window], DtmFilterParams(), 1.0)
    expected, expected_flagged = reopening_filter(data, [window], DtmFilterParams(), 1.0)
    assert terrain.tobytes() == expected.tobytes()
    assert np.array_equal(terrain < data, expected_flagged)


@st.composite
def _signed_zero_cases(draw):
    """A grid of 1 to 30 rows and columns of 0.0, -0.0, 1.0 and NaN, and
    filter parameters whose windows go from 3, 5 or 7 cells to past twice
    the grid's longer side."""
    nrows, ncols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.choice(np.array([0.0, -0.0, 1.0, np.nan]), (nrows, ncols))
    window = draw(st.sampled_from([3, 5, 7]))
    threshold = draw(st.sampled_from([0.25, 0.5, 2.0]))
    params = DtmFilterParams(
        initial_window=window,
        max_window_m=draw(st.integers(window, 4 * max(nrows, ncols) + window)),
        slope=draw(st.sampled_from([0.0, 0.01, 0.3])),
        initial_threshold_m=threshold,
        max_threshold_m=threshold + draw(st.sampled_from([0.0, 0.5, 3.0])),
    )
    return data, params


@_filter_settings
@given(case=_signed_zero_cases())
def test_chained_erosions_equal_reopening_the_terrain(case):
    """Eroding each window's erosion further, and opening the input, gives
    the terrain and flags of reopening the lowered terrain at every window:
    equal up to the sign of a zero, which the written grid does not show."""
    data, params = case
    windows = window_sizes(params, 1.0)
    terrain = _filter(data, windows, params, 1.0)
    expected, expected_flagged = reopening_filter(data, windows, params, 1.0)
    assert np.array_equal(terrain, expected, equal_nan=True)
    assert np.array_equal(terrain < data, expected_flagged)
    assert write_ascii_grid(make_grid(terrain)) == write_ascii_grid(make_grid(expected))


def test_window_progression():
    assert window_sizes(DtmFilterParams(), 1.0) == [3, 5, 9, 17, 33, 65]
    assert window_sizes(DtmFilterParams(max_window_m=3.0), 1.0) == [3]
    assert window_sizes(DtmFilterParams(), 2.0) == [3, 5, 9, 17, 33]
    # up to the last window whose size is still a float
    sizes = window_sizes(DtmFilterParams(max_window_m=8e307), 1.0)
    assert sizes == [2**k + 1 for k in range(1, len(sizes) + 1)]
    assert sizes[-2] < 8e307 <= sizes[-1]


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


@st.composite
def _pmf_cases(draw):
    """A surface of 1 to 40 rows and columns: a ramp with seeded noise, up to
    four raised blocks and a random share of nodata cells; and filter
    parameters with an odd first window, a window limit from that window up
    to 20 times it, any slope and nested thresholds."""
    nrows, ncols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    cellsize = draw(st.sampled_from([0.5, 1.0, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = np.mgrid[0:nrows, 0:ncols] * cellsize
    grad_x, grad_y = draw(st.floats(-1, 1)), draw(st.floats(-1, 1))
    data = 50.0 + grad_x * cols + grad_y * rows
    data += rng.uniform(-1, 1, data.shape) * draw(st.sampled_from([0.0, 0.1, 2.0]))
    for _ in range(draw(st.integers(0, 4))):
        r, c = rng.integers(0, nrows), rng.integers(0, ncols)
        data[r:r + rng.integers(1, 12), c:c + rng.integers(1, 12)] += rng.uniform(3, 30)
    data[rng.random(data.shape) < draw(st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]))] = np.nan
    window = draw(st.sampled_from([3, 5, 7]))
    threshold = draw(st.floats(0.05, 3))
    params = DtmFilterParams(
        initial_window=window,
        max_window_m=window * cellsize * draw(st.floats(1, 20)),
        slope=draw(st.floats(0, 2)),
        initial_threshold_m=threshold,
        max_threshold_m=threshold + draw(st.floats(0, 5)),
    )
    return make_grid(data, cellsize=cellsize), params


_PRISM_CASES = [
    (synthesize_dsm(_prism_scene(noise=0.1, seed=seed)[0]).dsm, DtmFilterParams())
    for seed in (9, 5)
]
_pmf_settings = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@_pmf_settings
@given(case=_pmf_cases())
@example(case=_PRISM_CASES[0])
def test_dtm_never_above_dsm(case):
    dsm, params = case
    dtm, _ = progressive_morphological_filter(dsm, params)
    valid = dsm.valid_mask
    assert (dtm.data[valid] <= dsm.data[valid]).all()
    assert np.isnan(dtm.data[~valid]).all()


def test_filter_idempotent_on_prism_scene():
    scene, _ = _prism_scene(noise=0.1, seed=3)
    dsm = synthesize_dsm(scene).dsm
    dtm1, _ = progressive_morphological_filter(dsm)
    dtm2, _ = progressive_morphological_filter(dtm1)
    assert np.nanmax(np.abs(dtm2.data - dtm1.data)) <= 1e-9


@_pmf_settings
@given(case=_pmf_cases())
@example(case=_PRISM_CASES[1])
def test_ground_mask_means_unchanged(case):
    """Ground cells, nodata ones among them, keep the surface's bytes, and
    every non-ground cell ends below it."""
    dsm, params = case
    dtm, ground = progressive_morphological_filter(dsm, params)
    assert ground[~dsm.valid_mask].all()
    assert dtm.data[ground].tobytes() == dsm.data[ground].tobytes()
    assert (dtm.data[~ground] < dsm.data[~ground]).all()


@_pmf_settings
@given(case=_pmf_cases())
@example(case=_PRISM_CASES[0])
def test_each_step_thresholds_an_opening_of_the_input(case):
    """Every opening of the lowered terrain in the progression equals the
    opening of the input surface with the same window: a step lowers cells
    only onto an opening, which every larger opening absorbs. So ``_filter``
    thresholds openings of the input, and a cell's result depends on no cell
    more than max(w) - 1 rows away: the row bands' halo."""
    dsm, params = case
    cellsize = dsm.georef.cellsize
    windows = window_sizes(params, cellsize)
    terrain = _filter(dsm.data, windows, params, cellsize)
    expected, expected_flagged = reopening_filter(dsm.data, windows, params, cellsize)
    assert terrain.tobytes() == expected.tobytes()
    assert np.array_equal(terrain < dsm.data, expected_flagged)


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
    with pytest.raises(ConfigError):
        progressive_morphological_filter(g, DtmFilterParams(initial_window=4))
    with pytest.raises(ConfigError):
        progressive_morphological_filter(g, DtmFilterParams(initial_window=1))
    with pytest.raises(ConfigError, match="odd integer"):
        progressive_morphological_filter(g, DtmFilterParams(initial_window=3.5))
    with pytest.raises(ConfigError):
        progressive_morphological_filter(g, DtmFilterParams(slope=-0.1))
    with pytest.raises(ConfigError):
        progressive_morphological_filter(g, DtmFilterParams(initial_threshold_m=0.0))
    with pytest.raises(ConfigError):
        progressive_morphological_filter(
            g, DtmFilterParams(initial_threshold_m=2.0, max_threshold_m=1.0)
        )
    with pytest.raises(ConfigError):
        progressive_morphological_filter(g, DtmFilterParams(max_window_m=2.0))
