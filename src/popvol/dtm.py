"""Bare-earth extraction by progressive morphological filtering.

Buildings and other above-ground objects are removed from a surface model by
opening it with square windows of exponentially growing size (w -> 2w - 1).
At each step, cells where the surface sits more than a slope-linked threshold
above the opened surface are lowered onto the opened surface; every other
cell keeps its elevation, so a cell is non-ground exactly where the terrain
model ends below the surface model (Zhang et al. 2003, IEEE TGRS 41(4)). An
opening is a numpy running min then max filter (van Herk 1992; Gil & Werman
1993), with nodata filled with +inf once per row band and no other fill.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bands import row_bands, run_bands
from .errors import ConfigError
from .grid import Grid


@dataclass
class DtmFilterParams:
    """Filter controls.

    initial_window: first opening window, in cells (odd, >= 3).
    max_window_m: keep growing windows until one spans at least this many
        meters; sized to exceed the widest building so whole roofs go.
    slope: terrain rise/run the filter tolerates without flagging.
    initial_threshold_m: elevation-difference threshold at the first window.
    max_threshold_m: cap on the elevation-difference threshold.
    """

    initial_window: int = 3
    max_window_m: float = 35.0
    slope: float = 0.3
    initial_threshold_m: float = 0.5
    max_threshold_m: float = 3.0

    def __post_init__(self):
        if (
            not float(self.initial_window).is_integer()
            or self.initial_window < 3
            or self.initial_window % 2 == 0
        ):
            raise ConfigError(f"initial_window must be an odd integer >= 3, got {self.initial_window}")
        self.initial_window = int(self.initial_window)
        if self.slope < 0:
            raise ConfigError(f"slope must be >= 0, got {self.slope}")
        if self.initial_threshold_m <= 0:
            raise ConfigError(f"initial_threshold_m must be > 0, got {self.initial_threshold_m}")
        if self.max_threshold_m < self.initial_threshold_m:
            raise ConfigError("max_threshold_m must be >= initial_threshold_m")


def window_sizes(params: DtmFilterParams, cellsize: float) -> list[int]:
    """Window progression w, 2w-1, ... up to the first window >= max_window_m."""
    if params.max_window_m < params.initial_window * cellsize:
        raise ConfigError(
            f"max_window_m ({params.max_window_m}) smaller than the initial "
            f"window ({params.initial_window} cells x {cellsize} m)"
        )
    sizes = []
    w = params.initial_window
    while True:
        sizes.append(w)
        try:
            if w * cellsize >= params.max_window_m:
                break
        except OverflowError:  # w itself is beyond the float range
            raise ConfigError(
                f"max_window_m ({params.max_window_m}) is out of reach: windows of "
                f"{params.initial_window} cells x {cellsize} m leave the float range first"
            ) from None
        w = 2 * w - 1
    return sizes


def _running(data: np.ndarray, window: int, pick) -> np.ndarray:
    """``pick`` (np.minimum or np.maximum) over the ``window`` x ``window``
    square around each cell, edge cells repeated. Along each axis, ``pick`` of
    slices shifted by 1, 2, 4, ... spans k, the largest power of two <=
    ``window``; two spans at offsets 0 and ``window - k`` cover the window.
    With edge cells repeated, a window of 2n - 1 already covers an axis of n
    cells from every cell, so a wider one is clipped to that along the axis.
    Both axes are padded at once, so two buffers take turns as input and
    output; the result is a view into one of them."""
    windows = [min(window, 2 * n - 1) for n in data.shape]
    p = np.pad(data, [(w // 2, w // 2) for w in windows], mode="edge")
    q = np.empty_like(p)
    for axis, w in enumerate(windows):
        n = data.shape[axis]
        p, q = np.moveaxis(p, axis, 0), np.moveaxis(q, axis, 0)
        size, k = len(p), 1
        while 2 * k <= w:
            pick(p[:size - k], p[k:size], out=q[:size - k])
            p, q = q, p
            size -= k
            k *= 2
        pick(p[:n], p[w - k:w - k + n], out=q[:n])
        p, q = np.moveaxis(q[:n], 0, axis), np.moveaxis(p[:n], 0, axis)
    return p


def progressive_morphological_filter(
    dsm: Grid, params: DtmFilterParams | None = None
) -> tuple[Grid, np.ndarray]:
    """Derive (dtm, ground_mask) from a surface model.

    ground_mask is False exactly where the terrain ends below the surface (a
    cell is only ever lowered, onto an opening more than dh > 0 below it), so
    nodata, which compares false, is ground, and ground keeps its elevation.

    Large grids are filtered in row bands, one per usable CPU, each in a
    forked child. Every step thresholds an opening of the input, so a cell's
    result depends only on cells within max(w) - 1 rows of it: each band is
    filtered with that many extra rows on each side and cropped, and the
    output equals the one-band filter bit for bit. Bands are used only while
    a band and its halo stay smaller than the grid.

    The progression stops at the first window of 2n - 1 cells or more, n the
    grid's longer side: ``_running`` clips it to the whole block along both
    axes, so its opening is the block's minimum over valid cells, and a later
    window, opening to that same minimum with a threshold no smaller, would
    flag no cell more. A window past the grid costs no time.
    """
    if params is None:
        params = DtmFilterParams()
    cellsize = dsm.georef.cellsize
    windows = window_sizes(params, cellsize)
    span = 2 * max(dsm.data.shape) - 1  # a window this wide covers the grid
    while len(windows) > 1 and windows[-2] >= span:
        windows.pop()
    halo = max(windows) - 1

    def band(start: int, stop: int):
        lo = max(0, start - halo)
        band_terrain = _filter(dsm.data[lo:stop + halo], windows, params, cellsize)
        return start, band_terrain[start - lo:stop - lo]

    terrain = np.empty(dsm.data.shape)
    ground = np.empty(dsm.data.shape, dtype=bool)

    def take(result):
        start, band_terrain = result
        terrain[start:start + len(band_terrain)] = band_terrain

    run_bands(band, row_bands(dsm.georef.nrows, dsm.data.size, halo), take)
    np.logical_not(np.less(terrain, dsm.data, out=ground), out=ground)
    return Grid(dsm.georef, terrain, dsm.nodata), ground


def _filter(
    surface: np.ndarray, windows: list[int], params: DtmFilterParams, cellsize: float
) -> np.ndarray:
    """The filter on one block of rows: the terrain.

    Each window thresholds the terrain against an opening of ``surface``,
    equal to the opening of the terrain lowered so far. Nodata is filled with
    +inf once; each erosion erodes the last by ``w - prev_w + 1`` cells (by a,
    then b cells is by a + b - 1). The dilation needs no fill: a valid cell is
    in the erosion window of each cell of its own window, so its opening is
    finite; at nodata ``terrain - opened`` is NaN, never hit. The chain can
    change a direct erosion only in the sign of a zero, at a lowered cell
    opening to +-0: its surface exceeds dh > 0, so no height or digit changes.
    """
    eroded = np.where(np.isnan(surface), np.inf, surface)
    terrain, prev_w = surface.copy(), 1
    for w in windows:
        dh = params.initial_threshold_m
        if prev_w > 1:
            dh = min(params.max_threshold_m, params.slope * (w - prev_w) * cellsize + dh)
        eroded = _running(eroded, w - prev_w + 1, np.minimum)
        opened = _running(eroded, w, np.maximum)
        np.copyto(terrain, opened, where=(terrain - opened) > dh)
        prev_w = w
    return terrain
