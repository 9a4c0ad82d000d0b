"""Bare-earth extraction by progressive morphological filtering.

Buildings and other above-ground objects are removed from a surface model by
opening it with square windows of exponentially growing size (w -> 2w - 1).
At each step, cells where the surface sits more than a slope-linked threshold
above the opened surface are classified non-ground and lowered onto the
opened surface; ground cells keep their original elevation, so the terrain
model equals the surface model wherever nothing was removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bands import band_count, part_rows, row_bands, run_bands
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

    def validate(self, cellsize: float) -> None:
        if (
            not float(self.initial_window).is_integer()
            or self.initial_window < 3
            or self.initial_window % 2 == 0
        ):
            raise ValueError(f"initial_window must be an odd integer >= 3, got {self.initial_window}")
        if self.slope < 0:
            raise ValueError(f"slope must be >= 0, got {self.slope}")
        if self.initial_threshold_m <= 0:
            raise ValueError(f"initial_threshold_m must be > 0, got {self.initial_threshold_m}")
        if self.max_threshold_m < self.initial_threshold_m:
            raise ValueError("max_threshold_m must be >= initial_threshold_m")
        if self.max_window_m < self.initial_window * cellsize:
            raise ValueError(
                f"max_window_m ({self.max_window_m}) smaller than the initial "
                f"window ({self.initial_window} cells x {cellsize} m)"
            )


def window_sizes(params: DtmFilterParams, cellsize: float) -> list[int]:
    """Window progression w, 2w-1, ... up to the first window >= max_window_m."""
    sizes = []
    w = int(params.initial_window)
    while True:
        sizes.append(w)
        if w * cellsize >= params.max_window_m:
            break
        w = 2 * w - 1
    return sizes


def _erode(data: np.ndarray, window: int) -> np.ndarray:
    from scipy import ndimage  # here, so that commands without a PMF skip its import

    # Nodata (NaN) is absent from the kernel: +inf never wins a minimum, and a
    # window of nothing but +inf marks an all-nodata neighborhood.
    filled = np.where(np.isnan(data), np.inf, data)
    out = ndimage.minimum_filter(filled, size=window, mode="nearest")
    out[np.isinf(out)] = np.nan
    return out


def _dilate(data: np.ndarray, window: int) -> np.ndarray:
    from scipy import ndimage

    filled = np.where(np.isnan(data), -np.inf, data)
    out = ndimage.maximum_filter(filled, size=window, mode="nearest")
    out[np.isinf(out)] = np.nan
    return out


def morphological_opening(g: Grid, window: int) -> Grid:
    """Erosion then dilation with a square window, nodata cells absent.

    Removes features narrower than the window; never raises any cell.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be an odd positive integer, got {window}")
    if window == 1:
        return Grid(g.georef, g.data.copy(), g.nodata)
    return Grid(g.georef, _dilate(_erode(g.data, window), window), g.nodata)


def progressive_morphological_filter(
    dsm: Grid, params: DtmFilterParams | None = None
) -> tuple[Grid, np.ndarray]:
    """Derive (dtm, ground_mask) from a surface model.

    ground_mask is a boolean array, True where the cell was never flagged as
    non-ground (nodata cells are never flagged). Wherever ground_mask is True
    the returned terrain equals the input surface exactly.

    Large grids are filtered in row bands, one per usable CPU. A cell's result
    depends only on cells within sum(w - 1) rows of it (each opening reaches
    w - 1 cells, and the threshold step is per cell), so each band is filtered
    with that many extra rows on each side and cropped: the output equals the
    one-band filter bit for bit. Bands are used only while a band and its
    halo stay smaller than the grid.
    """
    if params is None:
        params = DtmFilterParams()
    cellsize = dsm.georef.cellsize
    params.validate(cellsize)
    windows = window_sizes(params, cellsize)
    halo = sum(w - 1 for w in windows)

    nrows = dsm.georef.nrows
    bounds = row_bands(nrows, band_count(dsm.data.size))
    while len(bounds) > 1 and any(
        min(nrows, stop + halo) - max(0, start - halo) >= nrows for start, stop in bounds
    ):
        bounds = row_bands(nrows, len(bounds) - 1)

    def band(start: int, stop: int):
        lo = max(0, start - halo)
        band_terrain, band_flagged = _filter(dsm.data[lo:stop + halo], windows, params, cellsize)
        step = part_rows(dsm.georef.ncols)
        for top in range(start, stop, step):
            rows = slice(top - lo, min(top + step, stop) - lo)
            yield top, band_terrain[rows], band_flagged[rows]

    terrain = np.empty(dsm.data.shape)
    flagged = np.empty(dsm.data.shape, dtype=bool)

    def take(part):
        top, terrain_rows, flagged_rows = part
        terrain[top:top + len(terrain_rows)] = terrain_rows
        flagged[top:top + len(flagged_rows)] = flagged_rows

    run_bands(band, bounds, take)
    return Grid(dsm.georef, terrain, dsm.nodata), ~flagged


def _filter(
    surface: np.ndarray, windows: list[int], params: DtmFilterParams, cellsize: float
) -> tuple[np.ndarray, np.ndarray]:
    """The filter on one block of rows: (terrain, flagged)."""
    flagged = np.zeros(surface.shape, dtype=bool)
    prev_w = None
    for w in windows:
        opened = _dilate(_erode(surface, w), w)
        if prev_w is None:
            dh = params.initial_threshold_m
        else:
            dh = min(
                params.max_threshold_m,
                params.slope * (w - prev_w) * cellsize + params.initial_threshold_m,
            )
        # NaN differences compare False, so nodata cells are never flagged.
        hit = (surface - opened) > dh
        surface = np.where(hit, opened, surface)
        flagged |= hit
        prev_w = w
    return surface, flagged
