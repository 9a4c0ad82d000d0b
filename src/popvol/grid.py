"""Georeferenced single-band rasters and ESRI ASCII grid I/O.

A grid file has five or six header lines (``ncols``, ``nrows``, ``xllcorner``,
``yllcorner``, ``cellsize``, optional ``NODATA_value``) followed by ``nrows``
lines of ``ncols`` whitespace-separated elevation values, north row first.
Header keys are case-insensitive. Cells are square; row 0 of the value array
is the northernmost row.

Internally nodata cells are held as NaN; the sentinel only appears in files.
Values are printed with shortest round-trip precision so that
``read_ascii_grid(write_ascii_grid(g))`` reproduces ``g`` exactly.

Grids of 100,000 cells or more are read and written in row bands, one per
usable CPU (see ``_bands``); each band gives one result. Within a band both
directions work in chunks of about ``_PART_CELLS`` cells: the reader streams
a band's tokens into float64 arrays of at most that many values, however they
are spread over lines, and the writer formats whole rows, at least one per
chunk, from numpy masks of a chunk's NaN and integral cells. So per-cell
Python objects live for one chunk only. The values read and the text
written are exactly those of ``float`` and ``format_value`` applied cell by
cell, whatever the number of bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from ._bands import row_bands, run_bands
from .errors import AsciiGridError, GeorefMismatchError

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")

# Origin/cellsize agreement required for grid algebra, in meters.
GEOREF_TOLERANCE_M = 1e-6

# format_value prints integral values below this magnitude as integers.
_INT_LIMIT = 1e15
# cells converted or formatted at a time: 16 rows of a 1000-column grid, so
# few per-cell Python objects live at once, yet many rows of a narrow grid,
# so numpy's fixed per-call cost is spread over them.
_PART_CELLS = 16384


def format_value(v: float) -> str:
    """Shortest decimal text that parses back to exactly ``v``.

    Integral values are printed without a decimal point ("5", not "5.0").
    """
    f = float(v)
    if f == int(f) and abs(f) < _INT_LIMIT:
        return str(int(f))
    return repr(f)


@dataclass(frozen=True)
class GridGeoref:
    """Spatial frame of a raster: cell counts, lower-left corner, cell size.

    Cell (row r, col c) has its center at
    ``(xll + (c + 0.5) * cellsize, yll + (nrows - 1 - r + 0.5) * cellsize)``;
    row 0 is the northernmost row.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.ncols}x{self.nrows}")
        if self.cellsize <= 0:
            raise ValueError(f"cellsize must be positive, got {self.cellsize}")

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        x = self.xll + (col + 0.5) * self.cellsize
        y = self.yll + (self.nrows - 1 - row + 0.5) * self.cellsize
        return x, y

    def col_centers(self) -> np.ndarray:
        return self.xll + (np.arange(self.ncols) + 0.5) * self.cellsize

    def row_centers(self) -> np.ndarray:
        """Y coordinate of each row center, row 0 (north) first."""
        return self.yll + (self.nrows - 1 - np.arange(self.nrows) + 0.5) * self.cellsize

    def approx_equal(self, other: "GridGeoref", tol: float = GEOREF_TOLERANCE_M) -> bool:
        return (
            self.ncols == other.ncols
            and self.nrows == other.nrows
            and abs(self.xll - other.xll) <= tol
            and abs(self.yll - other.yll) <= tol
            and abs(self.cellsize - other.cellsize) <= tol
        )


@dataclass
class Grid:
    """Elevation raster. ``data`` is float64, shape (nrows, ncols), NaN = nodata."""

    georef: GridGeoref
    data: np.ndarray
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.shape != (self.georef.nrows, self.georef.ncols):
            raise ValueError(
                f"data shape {arr.shape} does not match georef "
                f"({self.georef.nrows}, {self.georef.ncols})"
            )
        if np.isinf(arr).any():
            raise ValueError("grid values must be finite or nodata")
        # Sentinel-valued cells are nodata by definition; canonicalize to NaN.
        arr = arr.copy()
        arr[arr == self.nodata] = np.nan
        self.data = arr

    @property
    def valid_mask(self) -> np.ndarray:
        return ~np.isnan(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.georef == other.georef
            and self.nodata == other.nodata
            and np.array_equal(self.data, other.data, equal_nan=True)
        )


def _parse_header_line(line: str, line_no: int, expected_key: str) -> float:
    parts = line.split()
    if len(parts) != 2:
        raise AsciiGridError(
            f"expected '{expected_key} <value>', got {line.strip()!r}", line_no
        )
    key, value = parts
    if key.lower() != expected_key:
        raise AsciiGridError(
            f"expected header key {expected_key!r}, got {key!r}", line_no
        )
    try:
        v = float(value)
    except ValueError:
        raise AsciiGridError(
            f"non-numeric value {value!r} for header key {expected_key!r}", line_no
        ) from None
    if not math.isfinite(v):
        raise AsciiGridError(
            f"non-finite value {value!r} for header key {expected_key!r}", line_no
        )
    return v


def _raise_first_bad_token(body: list[str], first_line_no: int, expected: int) -> None:
    """Walk the body token by token and raise for the first bad token.

    A token is bad when it is one value too many, is not a number, or is
    infinite. The caller has already found that the body holds one.
    """
    count = 0
    for line_no, line in enumerate(body, first_line_no):
        for token in line.split():
            if count >= expected:
                raise AsciiGridError(f"too many values: expected {expected}", line_no)
            try:
                v = float(token)
            except ValueError:
                raise AsciiGridError(f"non-numeric value token {token!r}", line_no) from None
            if math.isinf(v):
                raise AsciiGridError(f"non-finite value token {token!r}", line_no)
            count += 1


def read_ascii_grid(text: str) -> Grid:
    """Parse an ESRI ASCII grid from a string.

    Raises AsciiGridError (with the offending line number) on malformed or
    non-finite headers, non-numeric or infinite tokens, or a wrong body value
    count.
    """
    lines = text.splitlines()
    if len(lines) < len(_HEADER_KEYS):
        raise AsciiGridError("incomplete header", len(lines) or 1)

    raw = {}
    for i, key in enumerate(_HEADER_KEYS):
        raw[key] = _parse_header_line(lines[i], i + 1, key)

    if raw["ncols"] != int(raw["ncols"]) or raw["nrows"] != int(raw["nrows"]):
        raise AsciiGridError("ncols/nrows must be integers", 1)
    ncols, nrows = int(raw["ncols"]), int(raw["nrows"])
    if ncols < 1 or nrows < 1:
        raise AsciiGridError(f"grid must be at least 1x1, got {ncols}x{nrows}", 1)
    if raw["cellsize"] <= 0:
        raise AsciiGridError(f"cellsize must be positive, got {raw['cellsize']}", 5)

    nodata = DEFAULT_NODATA
    body_start = len(_HEADER_KEYS)
    if body_start < len(lines):
        parts = lines[body_start].split()
        if parts and parts[0].lower() == "nodata_value":
            nodata = _parse_header_line(lines[body_start], body_start + 1, "nodata_value")
            body_start += 1

    expected = ncols * nrows
    values = np.empty(expected, dtype=np.float64)
    count = 0
    body = lines[body_start:]

    def take(chunks):
        nonlocal count
        for chunk in chunks:
            if chunk is None or count + len(chunk) > expected:
                _raise_first_bad_token(body, body_start + 1, expected)
            values[count:count + len(chunk)] = chunk
            count += len(chunk)

    run_bands(
        lambda start, stop: _parse_lines(body, start, stop),
        row_bands(len(body), expected),
        take,
    )
    if np.isinf(values[:count]).any():
        _raise_first_bad_token(body, body_start + 1, expected)
    if count < expected:
        raise AsciiGridError(
            f"too few values: expected {expected}, got {count}", len(lines)
        )

    georef = GridGeoref(ncols, nrows, raw["xllcorner"], raw["yllcorner"], raw["cellsize"])
    return Grid(georef, values.reshape(nrows, ncols), nodata)


def _parse_lines(body: list[str], start: int, stop: int) -> list:
    """The values of ``body[start:stop]`` in float64 arrays of at most
    ``_PART_CELLS`` values (``np.fromiter`` applies ``float`` to each token),
    ending in None at a chunk with a non-numeric token."""
    tokens = chain.from_iterable(map(str.split, islice(body, start, stop)))
    chunks = []
    try:
        while len(chunk := np.fromiter(islice(tokens, _PART_CELLS), np.float64)):
            chunks.append(chunk)
    except ValueError:
        chunks.append(None)
    return chunks


def _format_rows(data: np.ndarray, start: int, stop: int, sentinel: str) -> list[str]:
    """Body lines of rows ``start:stop``, ``format_value`` of each cell and
    ``sentinel`` for NaN. The NaN and integral masks are taken once per chunk
    of ``_PART_CELLS`` cells, so narrow grids pay no per-row numpy cost."""
    ncols = data.shape[1]
    step = max(1, _PART_CELLS // ncols)
    lines = []
    for top in range(start, stop, step):
        chunk = data[top:min(top + step, stop)]
        integral = (np.trunc(chunk) == chunk) & (np.abs(chunk) < _INT_LIMIT)
        whole = integral.all(axis=1)
        # all-integral rows (every ground-mask row) print straight from int64
        ints = iter(chunk[whole].astype(np.int64).tolist())
        mixed = chunk[~whole]
        tokens = list(map(repr, mixed.ravel().tolist()))
        for i in np.flatnonzero(np.isnan(mixed)).tolist():
            tokens[i] = sentinel
        cells = np.flatnonzero(integral[~whole])
        for i, v in zip(cells.tolist(), mixed.ravel()[cells].astype(np.int64).tolist()):
            tokens[i] = str(v)
        at = 0
        for is_whole in whole.tolist():
            if is_whole:
                lines.append(" ".join(map(str, next(ints))))
            else:
                lines.append(" ".join(tokens[at:at + ncols]))
                at += ncols
    return lines


def write_ascii_grid(g: Grid) -> str:
    """Serialize a Grid to ESRI ASCII text (always includes NODATA_value)."""
    ref = g.georef
    sentinel = format_value(g.nodata)
    out = [
        f"ncols {ref.ncols}",
        f"nrows {ref.nrows}",
        f"xllcorner {format_value(ref.xll)}",
        f"yllcorner {format_value(ref.yll)}",
        f"cellsize {format_value(ref.cellsize)}",
        f"NODATA_value {sentinel}",
    ]
    run_bands(
        lambda start, stop: _format_rows(g.data, start, stop, sentinel),
        row_bands(ref.nrows, g.data.size),
        out.extend,
    )
    out.append("")  # a final newline, without a second copy of the text
    return "\n".join(out)


def grid_subtract(a: Grid, b: Grid) -> Grid:
    """Per-cell a - b. Nodata in either operand yields nodata in the result."""
    if not a.georef.approx_equal(b.georef):
        raise GeorefMismatchError(
            f"grid georefs differ: {a.georef} vs {b.georef}"
        )
    return Grid(a.georef, a.data - b.data, a.nodata)

