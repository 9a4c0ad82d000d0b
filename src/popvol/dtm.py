"""Bare-earth extraction by progressive morphological filtering.

Buildings and other above-ground objects are removed from a surface model by
opening it with square windows of exponentially growing size (w -> 2w - 1).
At each step, cells where the surface sits more than a slope-linked threshold
above the opened surface are classified non-ground and lowered onto the
opened surface; ground cells keep their original elevation, so the terrain
model equals the surface model wherever nothing was removed (Zhang et al.
2003, IEEE TGRS 41(4)). An opening is a numpy running min then max filter
(van Herk 1992; Gil & Werman 1993), with nodata filled once per opening.
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
    w = int(params.initial_window)
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


def _open(data: np.ndarray, window: int) -> np.ndarray:
    """Erosion then dilation of finite ``data``, nodata (NaN) absent from the
    kernel: filled with +inf for the minimum, whose +inf (an all-nodata
    neighborhood) is -inf for the maximum, whose -inf is NaN again."""
    eroded = _running(np.where(np.isnan(data), np.inf, data), window, np.minimum)
    eroded[eroded == np.inf] = -np.inf
    out = _running(eroded, window, np.maximum)
    out[out == -np.inf] = np.nan
    return out


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
    windows = window_sizes(params, cellsize)
    halo = sum(w - 1 for w in windows)

    def band(start: int, stop: int):
        lo = max(0, start - halo)
        band_terrain, band_flagged = _filter(dsm.data[lo:stop + halo], windows, params, cellsize)
        rows = slice(start - lo, stop - lo)
        return start, band_terrain[rows], band_flagged[rows]

    terrain = np.empty(dsm.data.shape)
    flagged = np.empty(dsm.data.shape, dtype=bool)

    def take(result):
        start, band_terrain, band_flagged = result
        rows = slice(start, start + len(band_terrain))
        terrain[rows], flagged[rows] = band_terrain, band_flagged

    run_bands(band, row_bands(dsm.georef.nrows, dsm.data.size, halo), take)
    return Grid(dsm.georef, terrain, dsm.nodata), ~flagged


def _filter(
    surface: np.ndarray, windows: list[int], params: DtmFilterParams, cellsize: float
) -> tuple[np.ndarray, np.ndarray]:
    """The filter on one block of rows: (terrain, flagged)."""
    flagged = np.zeros(surface.shape, dtype=bool)
    prev_w = None
    for w in windows:
        opened = _open(surface, w)
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
