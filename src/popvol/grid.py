"""Georeferenced single-band rasters and ESRI ASCII grid I/O.

A grid file has five or six header lines (``ncols``, ``nrows``, ``xllcorner``,
``yllcorner``, ``cellsize``, optional ``NODATA_value``) followed by ``nrows``
lines of ``ncols`` whitespace-separated elevation values, north row first.
Header keys are case-insensitive. Cells are square; row 0 of the value array
is the northernmost row.

In memory NaN is the only nodata: a ``Grid`` keeps its float64 array as it is,
and ``nodata`` is only the sentinel written for NaN. The reader makes its
file's sentinel cells NaN; the writer refuses, through ``check_writable``, a
cell equal to the sentinel or a sentinel that is not finite, so every grid it
writes reads back exactly.

Values are printed by ``format_value``: an integral value below 1e15 in
magnitude as an integer ("5", not "5.0"), any other value as ``repr``, the
shortest decimal that reads back as it. The writer does not call it per
cell: ``_shortest.format_cells`` prints a chunk of rows in one numpy pass,
integers from their integer value and other positional values from a
vectorized Ryu, and calls ``format_value`` only for the rare cells that
``repr`` prints in exponent form. Its text equals ``format_value`` applied
cell by cell, with the ``NODATA_value`` text for nodata.

The reader takes the file's bytes (``bytes``, a ``memoryview`` or an
``mmap``) and accepts plain ASCII decimal numbers only. ``float`` would also
take ``nan``, ``1_000`` and non-ASCII digits such as a full-width zero; each
of those, in the header or the body, is an ``AsciiGridError`` with its line.
Values are separated and lines ended by what ``str.split`` and
``str.splitlines`` cut at, which the bytes methods do not all know.

Grids of 100,000 cells or more are read and written in bands, one per usable
CPU (see ``_bands``); each band gives one result. The writer's bands are rows;
the reader's are stretches of the body's bytes of about equal length, cut at
whitespace, however the values are spread over lines; the header scan stops
at the sixth line's first token unless it is NODATA_value. The calling
process reads only the header and the bytes at the cuts, and each band reads
its own stretch, so a caller that hands over a mapping of the file never
holds its text. A band is read by ``_nearest.parse_tokens``, which refuses
what ``errors.decimal`` refuses and non-finite values, and otherwise equals
``float`` per token bit for bit, but reads most tokens in one numpy pass per
chunk of bytes, so neither a list of lines nor a per-cell Python object lives
through the read. Only a read that fails decodes the file, as a text-mode
read would (UTF-8, universal newlines), to name the first non-ASCII
character, which comes before any other error, or the line of the error.
The writer formats whole rows in chunks of about ``_PART_CELLS`` cells, at
least one row per chunk, so one chunk's text is built at a time. It holds
its text twice where it joins the chunks, and drops its reference to the grid
before that: a grid handed over with its last reference (on CPython 3.11 and
later, whose calls move their arguments into the callee) is freed first. The
values read and the text written are the same whatever the number of bands.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from ._bands import row_bands, run_bands
from ._nearest import SPACES, parse_tokens, space_after
from ._shortest import format_cells, format_value
from .errors import AsciiGridError, GeorefMismatchError, PipelineError, decimal

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
# One line of ASCII text and its end, as str.splitlines cuts them.
_LINE = re.compile(rb"[^\n\r\x0b\x0c\x1c-\x1e]*(?:\r\n|[\n\r\x0b\x0c\x1c-\x1e])?")
# A line whose first token is NODATA_value, in any case, followed by what str.split splits at.
_NODATA = re.compile(rb"[\t\x1f ]*nodata_value(?![^" + SPACES + rb"])", re.IGNORECASE)

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
    """Elevation raster. ``data`` is float64, shape (nrows, ncols), NaN the only nodata."""

    georef: GridGeoref
    data: np.ndarray
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != (self.georef.nrows, self.georef.ncols):
            raise PipelineError(
                f"data shape {self.data.shape} does not match georef "
                f"({self.georef.nrows}, {self.georef.ncols})"
            )
        if np.isinf(self.data).any():
            raise PipelineError("grid values must be finite or nodata")

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


def _text(data) -> str:
    """The text of ``data`` as a text-mode read of its file gives it: UTF-8
    with universal newlines, a byte that is not UTF-8 written as its escape
    (``\\xff``), which keeps the text ASCII and the token it is in bad. Built
    only to raise an error."""
    return str(data, "utf-8", "backslashreplace").replace("\r\n", "\n").replace("\r", "\n")


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


def _raise_for_body(text: str, body_start: int, expected: int, count: int | None = None) -> None:
    """Raise the error of a body that does not give ``expected`` good values:
    a non-ASCII character; too few values where the text cannot hold them, a
    value taking a character and a separator; with no ``count``, the first
    bad token; else too few values, ``count`` of them read."""
    _raise_if_not_ascii(text)
    lines = text.splitlines()
    holds = (len(text) + 1) // 2
    if expected <= holds and count is None:
        _raise_first_bad_token(lines[body_start:], body_start + 1, expected)
    got = f"the text holds at most {holds}" if expected > holds else f"got {count}"
    raise AsciiGridError(f"too few values: expected {expected}, {got}", len(lines))


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


def _head(data) -> list[bytes]:
    """The five header lines of ``data``, or all of them where it has fewer,
    and the NODATA_value line if the sixth is one, each with its line end.
    The scan stops at the sixth line's first token, so no body line is copied."""
    lines, pos = [], 0
    while pos < len(data) and (len(lines) < 5 or len(lines) == 5 and _NODATA.match(data, pos)):
        end = _LINE.match(data, pos).end()
        lines.append(bytes(data[pos:end]))
        pos = end
    return lines


def read_ascii_grid(data) -> Grid:
    """Parse an ESRI ASCII grid from the bytes of its file: ``bytes``, a
    ``memoryview`` or an ``mmap``.

    Raises AsciiGridError (with the offending line number) on a non-ASCII
    character, malformed or non-finite headers, non-numeric (underscores
    included) or non-finite tokens, or a wrong body value count. The first
    non-ASCII character comes before any other error, and every message and
    line is that of the file's text as a text-mode read decodes it, which
    only a read that fails builds.
    """
    text = functools.cache(functools.partial(_text, data))
    try:
        return _read(data, text)
    except AsciiGridError:
        _raise_if_not_ascii(text())
        raise


def _read(data, text) -> Grid:
    """``read_ascii_grid`` of ``data``; ``text()`` gives its text."""
    lines = _head(data)
    if not all(line.isascii() for line in lines):
        _raise_if_not_ascii(text())
    lines = [line.decode(errors="backslashreplace") for line in lines]
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
    # a header that claims more values than the bytes can hold allocates nothing
    if expected > (len(data) + 1) // 2:
        _raise_for_body(text(), body_start, expected)
    values = np.empty(expected, dtype=np.float64)
    count = 0

    def take(parts):
        nonlocal count
        if parts is None or count + sum(map(len, parts)) > expected:
            _raise_for_body(text(), body_start, expected)
        for part in parts:
            values[count:count + len(part)] = part
            count += len(part)

    # bands of the body's bytes (row_bands' rule), each cut moved on to whitespace
    body = sum(map(len, lines))
    cuts = [space_after(data, body + stop) for _, stop in row_bands(len(data) - body, expected)]
    run_bands(
        lambda start, stop: parse_tokens(data, start, stop),
        zip([body] + cuts[:-1], cuts),
        take,
    )
    if count < expected:
        _raise_for_body(text(), body_start, expected, count)

    values[values == nodata] = np.nan
    georef = GridGeoref(ncols, nrows, raw["xllcorner"], raw["yllcorner"], raw["cellsize"])
    return Grid(georef, values.reshape(nrows, ncols), nodata)


def _format_rows(data: np.ndarray, sentinel: str, start: int, stop: int) -> list[str]:
    """The text of rows ``start:stop``, each line ending in "\\n", in chunks
    of whole rows of about ``_PART_CELLS`` cells."""
    step = max(1, _PART_CELLS // data.shape[1])
    return [
        format_cells(data[top:min(top + step, stop)], sentinel)
        for top in range(start, stop, step)
    ]


def check_writable(g: Grid) -> str:
    """The ``NODATA_value`` text of ``g``; raises PipelineError if the
    sentinel is not finite or a cell equals it, as the written grid would
    not read back."""
    if not math.isfinite(g.nodata):
        raise PipelineError(f"cannot write grid: NODATA_value {g.nodata} is not finite")
    sentinel = format_value(g.nodata)
    clash = np.argwhere(g.data == g.nodata)
    if len(clash):
        r, c = clash[0]
        raise PipelineError(f"cannot write grid: row {r}, col {c} equals NODATA_value {sentinel}")
    return sentinel


def write_ascii_grid(g: Grid) -> str:
    """Serialize a Grid to ESRI ASCII text (always includes NODATA_value),
    once ``check_writable`` passes it.

    The grid is let go once its rows are formatted, before their text is
    joined: a caller that passed its only reference frees the array there.
    """
    sentinel = check_writable(g)
    ref, data = g.georef, g.data
    del g
    parts = [
        f"ncols {ref.ncols}\n"
        f"nrows {ref.nrows}\n"
        f"xllcorner {format_value(ref.xll)}\n"
        f"yllcorner {format_value(ref.yll)}\n"
        f"cellsize {format_value(ref.cellsize)}\n"
        f"NODATA_value {sentinel}\n"
    ]
    run_bands(
        functools.partial(_format_rows, data, sentinel),
        row_bands(ref.nrows, data.size),
        parts.extend,
    )
    del data
    return "".join(parts)


def grid_subtract(a: Grid, b: Grid) -> Grid:
    """Per-cell a - b. Nodata in either operand yields nodata in the result."""
    if not a.georef.approx_equal(b.georef):
        raise GeorefMismatchError(
            f"grid georefs differ: {a.georef} vs {b.georef}"
        )
    with np.errstate(over="ignore"):  # an overflow is inf, which Grid refuses
        return Grid(a.georef, a.data - b.data, a.nodata)

