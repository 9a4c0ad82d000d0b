"""Georeferenced single-band rasters and ESRI ASCII grid I/O.

A grid file has five or six header lines (``ncols``, ``nrows``, ``xllcorner``,
``yllcorner``, ``cellsize``, optional ``NODATA_value``) followed by ``nrows``
lines of ``ncols`` whitespace-separated elevation values, north row first.
Header keys are case-insensitive. Cells are square; row 0 of the value array
is the northernmost row.

Internally nodata cells are held as NaN; the sentinel only appears in files.
A ``Grid`` keeps the float64 array it is given; an array with a sentinel cell
gives a new array with NaN there, so the caller's array is never written.
``read_ascii_grid(write_ascii_grid(g))`` reproduces ``g`` exactly.

Values are printed by ``format_value``: an integral value below 1e15 in
magnitude as an integer ("5", not "5.0"), any other value as ``repr``, the
shortest decimal that reads back as it. The writer does not call it per
cell: ``_shortest.format_cells`` prints a chunk of rows in one numpy pass,
integers from their integer value and other positional values from a
vectorized Ryu, and calls ``format_value`` only for the rare cells that
``repr`` prints in exponent form. Its text equals ``format_value`` applied
cell by cell, with the ``NODATA_value`` text for nodata.

The reader accepts plain ASCII decimal numbers only. ``float`` would also
take ``nan``, ``1_000`` and non-ASCII digits such as a full-width zero; each
of those, in the header or the body, is an ``AsciiGridError`` with its line.

Grids of 100,000 cells or more are read and written in bands, one per usable
CPU (see ``_bands``); each band gives one result. The writer's bands are rows;
the reader's are stretches of the body text of about equal length, cut at
whitespace, however the values are spread over lines; the header scan stops
at the sixth line's first token unless it is NODATA_value. A band is read by
``_nearest.parse_tokens``, which refuses what ``errors.decimal`` refuses and
non-finite values, and otherwise equals ``float`` per token bit for bit, but
reads most tokens in one numpy pass per chunk of text, so neither a list of
lines nor a per-cell Python object lives through the read; only a read that
fails splits the text into lines, to name the line of the first bad token.
The writer formats whole rows in chunks of about ``_PART_CELLS`` cells, at
least one row per chunk, so one chunk's text is built at a time. The values
read and the text written are the same whatever the number of bands.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from ._bands import row_bands, run_bands
from ._nearest import parse_tokens, space_after
from ._shortest import format_cells, format_value
from .errors import AsciiGridError, GeorefMismatchError, PipelineError, decimal

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
# One line of ASCII text and its end, as str.splitlines cuts them.
_LINE = re.compile(r"[^\n\r\x0b\x0c\x1c-\x1e]*(?:\r\n|[\n\r\x0b\x0c\x1c-\x1e])?")
# A line whose first token is NODATA_value, in any case.
_NODATA = re.compile(r"[\t\x1f ]*nodata_value(?!\S)", re.IGNORECASE)

# Origin/cellsize agreement required for grid algebra, in meters.
GEOREF_TOLERANCE_M = 1e-6

# cells the writer formats at a time: 16 rows of a 1000-column grid, so few
# temporaries live at once, yet many rows of a narrow grid, so numpy's fixed
# per-call cost is spread over them.
_PART_CELLS = 16384


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
            raise PipelineError(f"grid must be at least 1x1, got {self.ncols}x{self.nrows}")
        if self.cellsize <= 0:
            raise PipelineError(f"cellsize must be positive, got {self.cellsize}")

    def col_centers(self) -> np.ndarray:
        return self.xll + (np.arange(self.ncols) + 0.5) * self.cellsize

    def row_centers(self) -> np.ndarray:
        """Y coordinate of each row center, row 0 (north) first."""
        return self.yll + (self.nrows - 1 - np.arange(self.nrows) + 0.5) * self.cellsize

    def approx_equal(self, other: "GridGeoref") -> bool:
        return (
            self.ncols == other.ncols
            and self.nrows == other.nrows
            and abs(self.xll - other.xll) <= GEOREF_TOLERANCE_M
            and abs(self.yll - other.yll) <= GEOREF_TOLERANCE_M
            and abs(self.cellsize - other.cellsize) <= GEOREF_TOLERANCE_M
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
            raise PipelineError(
                f"data shape {arr.shape} does not match georef "
                f"({self.georef.nrows}, {self.georef.ncols})"
            )
        if np.isinf(arr).any():
            raise PipelineError("grid values must be finite or nodata")
        sentinel = arr == self.nodata
        self.data = np.where(sentinel, np.nan, arr) if sentinel.any() else arr

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
    v = decimal(value)
    if v is None:
        raise AsciiGridError(
            f"non-numeric value {value!r} for header key {expected_key!r}", line_no
        )
    if not math.isfinite(v):
        raise AsciiGridError(
            f"non-finite value {value!r} for header key {expected_key!r}", line_no
        )
    return v


def _raise_if_not_ascii(text: str) -> None:
    """Raise for the first non-ASCII character, which ``float`` might read as
    a digit and ``split`` as a space. ``isascii`` costs nothing on ASCII text."""
    if text.isascii():
        return
    try:
        text.encode("ascii")
    except UnicodeEncodeError as err:
        line_no = len(text[:err.start + 1].splitlines())
        raise AsciiGridError(f"non-ASCII character {text[err.start]!r}", line_no) from None


def _raise_first_bad_token(body: list[str], first_line_no: int, expected: int) -> None:
    """Walk the body token by token and raise for the first bad token.

    A token is bad when it is one value too many, is not a number or holds
    an underscore, or is not finite. The caller has already found that the
    body holds one.
    """
    count = 0
    for line_no, line in enumerate(body, first_line_no):
        for token in line.split():
            if count >= expected:
                raise AsciiGridError(f"too many values: expected {expected}", line_no)
            v = decimal(token)
            if v is None:
                raise AsciiGridError(f"non-numeric value token {token!r}", line_no)
            if not math.isfinite(v):
                raise AsciiGridError(f"non-finite value token {token!r}", line_no)
            count += 1


def _head(text: str) -> list[str]:
    """The five header lines of ``text``, or all of them where it has fewer,
    and the NODATA_value line if the sixth is one, each with its line end.
    The scan stops at the sixth line's first token, so no body line is copied."""
    lines, pos = [], 0
    while pos < len(text) and (len(lines) < 5 or len(lines) == 5 and _NODATA.match(text, pos)):
        lines.append(_LINE.match(text, pos).group())
        pos += len(lines[-1])
    return lines


def read_ascii_grid(text: str) -> Grid:
    """Parse an ESRI ASCII grid from a string.

    Raises AsciiGridError (with the offending line number) on a non-ASCII
    character, malformed or non-finite headers, non-numeric (underscores
    included) or non-finite tokens, or a wrong body value count.
    """
    _raise_if_not_ascii(text)
    lines = _head(text)
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
    body_start = len(lines)
    if body_start > len(_HEADER_KEYS):
        nodata = _parse_header_line(lines[-1], body_start, "nodata_value")

    expected = ncols * nrows
    # each value takes a character and a separator: a header that claims more
    # values than the text can hold allocates nothing
    if expected > (len(text) + 1) // 2:
        raise AsciiGridError(
            f"too few values: expected {expected}, the text holds at most {(len(text) + 1) // 2}",
            len(text.splitlines()),
        )
    values = np.empty(expected, dtype=np.float64)
    count = 0

    def take(parts):
        nonlocal count
        if parts is None or count + sum(map(len, parts)) > expected:
            _raise_first_bad_token(text.splitlines()[body_start:], body_start + 1, expected)
        for part in parts:
            values[count:count + len(part)] = part
            count += len(part)

    # bands of the body's characters (row_bands' rule), each cut moved on to whitespace
    body = sum(map(len, lines))
    cuts = [space_after(text, body + stop) for _, stop in row_bands(len(text) - body, expected)]
    run_bands(
        lambda start, stop: parse_tokens(text, start, stop),
        zip([body] + cuts[:-1], cuts),
        take,
    )
    if count < expected:
        raise AsciiGridError(
            f"too few values: expected {expected}, got {count}", len(text.splitlines())
        )

    georef = GridGeoref(ncols, nrows, raw["xllcorner"], raw["yllcorner"], raw["cellsize"])
    return Grid(georef, values.reshape(nrows, ncols), nodata)


def _format_rows(data: np.ndarray, start: int, stop: int, sentinel: str) -> list[str]:
    """The text of rows ``start:stop``, each line ending in "\\n", in chunks
    of whole rows of about ``_PART_CELLS`` cells."""
    step = max(1, _PART_CELLS // data.shape[1])
    return [
        format_cells(data[top:min(top + step, stop)], sentinel)
        for top in range(start, stop, step)
    ]


def write_ascii_grid(g: Grid) -> str:
    """Serialize a Grid to ESRI ASCII text (always includes NODATA_value)."""
    ref = g.georef
    sentinel = format_value(g.nodata)
    parts = [
        f"ncols {ref.ncols}\n"
        f"nrows {ref.nrows}\n"
        f"xllcorner {format_value(ref.xll)}\n"
        f"yllcorner {format_value(ref.yll)}\n"
        f"cellsize {format_value(ref.cellsize)}\n"
        f"NODATA_value {sentinel}\n"
    ]
    run_bands(
        lambda start, stop: _format_rows(g.data, start, stop, sentinel),
        row_bands(ref.nrows, g.data.size),
        parts.extend,
    )
    return "".join(parts)


def grid_subtract(a: Grid, b: Grid) -> Grid:
    """Per-cell a - b. Nodata in either operand yields nodata in the result."""
    if not a.georef.approx_equal(b.georef):
        raise GeorefMismatchError(
            f"grid georefs differ: {a.georef} vs {b.georef}"
        )
    with np.errstate(over="ignore"):  # an overflow is inf, which Grid refuses
        return Grid(a.georef, a.data - b.data, a.nodata)

