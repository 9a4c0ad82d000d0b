import math
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popvol import (
    AsciiGridError,
    GeorefMismatchError,
    Grid,
    GridGeoref,
    PipelineError,
    grid_subtract,
    read_ascii_grid,
    write_ascii_grid,
)
from popvol.cli import main
from popvol.grid import _PART_CELLS, format_value

from conftest import make_grid, split_into

MINIMAL = (
    "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
    "NODATA_value -9999\n1 2\n3 4\n"
)


def test_parse_minimal_2x2():
    g = read_ascii_grid(MINIMAL)
    assert g.georef == GridGeoref(2, 2, 0.0, 0.0, 1.0)
    assert g.nodata == -9999.0
    # north row first
    assert g.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_nodata_token_is_masked():
    text = MINIMAL.replace("1 2", "-9999 2")
    g = read_ascii_grid(text)
    assert math.isnan(g.data[0, 0])
    assert g.valid_mask.tolist() == [[False, True], [True, True]]


def test_missing_nodata_header_defaults():
    text = "ncols 1\nnrows 1\nxllcorner 5\nyllcorner 6\ncellsize 2\n7\n"
    g = read_ascii_grid(text)
    assert g.nodata == -9999.0
    assert g.data[0, 0] == 7.0


def test_header_keys_case_insensitive():
    text = "NCOLS 1\nNrows 1\nXLLCORNER 0\nyllCorner 0\nCellSize 1\nNODATA_VALUE -1\n3\n"
    g = read_ascii_grid(text)
    assert g.georef.ncols == 1
    assert g.nodata == -1.0


def _random_grid(rng: random.Random) -> Grid:
    ncols = rng.randint(1, 8)
    nrows = rng.randint(1, 8)
    nodata = rng.choice([-9999.0, -32768.0, 1e6])
    values = np.empty((nrows, ncols))
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < 0.2:
                values[r, c] = np.nan
            elif rng.random() < 0.3:
                values[r, c] = rng.randint(-50, 50)
            else:
                values[r, c] = rng.uniform(-1e4, 1e4)
    georef = GridGeoref(
        ncols, nrows, rng.uniform(-1e5, 1e5), rng.uniform(-1e5, 1e5), rng.uniform(0.1, 10)
    )
    return Grid(georef, values, nodata)


def test_roundtrip_random_grids():
    rng = random.Random(1234)
    for _ in range(20):
        g = _random_grid(rng)
        assert read_ascii_grid(write_ascii_grid(g)) == g


def _write_reference(g: Grid) -> str:
    """The writer's text, cell by cell through format_value."""
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
    for row in g.data:
        out.append(" ".join(sentinel if np.isnan(v) else format_value(v) for v in row))
    return "\n".join(out) + "\n"


def _mixed_rows(nrows: int = 20, ncols: int = 30) -> list[list[float]]:
    """Rows mixing nodata, integral and fractional cells at random."""
    rng = np.random.default_rng(5)
    frac = rng.normal(0.0, 1e3, (nrows, ncols))
    kind = rng.integers(0, 3, frac.shape)
    return np.select([kind == 0, kind == 1], [np.nan, np.round(frac)], frac).tolist()


_NAN = float("nan")
ADVERSARIAL = [
    # all-NaN rows, then a mixed row
    [[_NAN, _NAN, _NAN], [_NAN, _NAN, _NAN], [1.0, _NAN, 2.5]],
    # signed zero, the integer-format limit and its neighbours, exponents
    [[-0.0, 0.0, 1e15, -1e15], [1e16, 1e-5, -1e-5, 999999999999999.0]],
    [[0.1, 2.0, _NAN, -7.0], [1e300, 5e-324, 123456789.0, -3.25]],
    # all integral rows, as in a ground mask
    [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]],
    [[42.0]],
    [[_NAN]],
    _mixed_rows(),
    # one column over more rows than one chunk holds
    _mixed_rows(_PART_CELLS + 1000, 1),
    # every power of two whose repr is positional, and exact ties that round
    # to even where the last digits go
    [[2.0**e for e in range(-14, 54)]],
    [[2.0**50 + 0.25, 2.0**50 + 0.75, 1e15 + 0.25, 1e15 - 0.25, 2.0**51 + 0.5, 0.5 - 2.0**-54]],
]


@pytest.mark.parametrize("values", ADVERSARIAL)
@pytest.mark.parametrize("nodata", [-9999.0, -3.5, 1e20])
def test_write_matches_format_value_reference(values, nodata):
    arr = np.array(values, dtype=np.float64)
    g = Grid(GridGeoref(arr.shape[1], arr.shape[0], -0.0, 1e-5, 0.5), arr, nodata)
    text = write_ascii_grid(g)
    assert text == _write_reference(g)
    assert read_ascii_grid(text) == g


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _ulps_away(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _near(bases):
    """A value of ``bases`` or one to three ulps from it, either sign."""
    return st.builds(
        lambda x, ulps, sign: sign * _ulps_away(x, ulps),
        bases, st.integers(-3, 3), st.sampled_from([1.0, -1.0]),
    )


_CELLS = st.one_of(
    # any finite bit pattern; NaNs are nodata
    st.integers(0, 2**64 - 1).map(_from_bits).filter(lambda v: not math.isinf(v)),
    st.sampled_from([0.0, -0.0]),
    _near(st.integers(1, 2**52 - 1).map(_from_bits)),  # subnormals
    # powers of two, more often those whose repr is positional
    _near(st.one_of(st.integers(-14, 53), st.integers(-1074, 1023)).map(lambda e: 2.0**e)),
    # where repr switches form
    _near(st.sampled_from([1e-4, 1e15])),
    # ordinary values, most of them printed by the vectorized path
    st.floats(-(2.0**53), 2.0**53),
    st.builds(lambda m, e: m * 10.0**e, st.integers(-10**9, 10**9), st.integers(-12, 6)),
)


@st.composite
def _kernel_grids(draw) -> Grid:
    nrows, ncols = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    cells = draw(st.lists(_CELLS, min_size=nrows * ncols, max_size=nrows * ncols))
    nodata = draw(st.sampled_from([-9999.0, 1e-7, 2.0**60]))
    data = np.array(cells, dtype=np.float64).reshape(nrows, ncols)
    return Grid(GridGeoref(ncols, nrows, 0.0, 0.0, 1.0), data, nodata)


@pytest.mark.parametrize("nbands", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(g=_kernel_grids())
def test_write_equals_format_value_on_any_double(nbands, g):
    with split_into(nbands):
        text = write_ascii_grid(g)
    assert text == _write_reference(g)
    assert read_ascii_grid(text) == g


def test_write_peak_memory_is_about_twice_the_text():
    """The chunk texts and their join: each chunk's arrays are freed before it."""
    data = 68.0 + np.random.default_rng(3).random((1000, 300))
    g = make_grid(data)
    tracemalloc.start()
    try:
        text = write_ascii_grid(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * len(text)


@pytest.mark.parametrize("layout", ["one_per_line", "no_nodata_one_line"])
def test_read_peak_memory_is_the_values_and_one_band(layout):
    """No list of lines, and no copy of the body, lives through the read,
    nor does the header scan copy a long first body line; only the values
    (8 bytes a cell), one band's chunk arrays as many and one chunk's
    temporaries."""
    data = 68.0 + np.round(np.random.default_rng(3).random((1000, 1000)), 3)
    lines = write_ascii_grid(make_grid(data)).splitlines()
    tokens = " ".join(lines[6:]).split()
    if layout == "one_per_line":
        text = "\n".join(lines[:6] + tokens) + "\n"
    else:
        text = "\n".join(lines[:5] + [" ".join(tokens)]) + "\n"
    with split_into(1):
        tracemalloc.start()
        try:
            grid = read_ascii_grid(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert grid == make_grid(data)
    assert peak <= 2 * 8 * data.size + 4 * 2**20


@pytest.mark.parametrize("values", ADVERSARIAL)
@pytest.mark.parametrize("layout", ["one_line", "uneven", "one_per_line"])
def test_read_values_spread_across_lines(values, layout):
    arr = np.array(values, dtype=np.float64)
    g = Grid(GridGeoref(arr.shape[1], arr.shape[0], 0.0, 0.0, 1.0), arr, -3.5)
    lines = write_ascii_grid(g).splitlines()
    header, tokens = lines[:6], " ".join(lines[6:]).split()
    if layout == "one_line":
        body = [" ".join(tokens)]
    elif layout == "one_per_line":
        body = tokens
    else:
        rng = random.Random(len(tokens))
        body, i = [], 0
        while i < len(tokens):
            n = rng.randint(0, 3)
            body.append("  ".join(tokens[i:i + n]))
            i += n
    text = "\n".join(header + body) + "\n"
    assert read_ascii_grid(text) == g


def test_write_1x1_single_row():
    g = make_grid([[5.0]])
    text = write_ascii_grid(g)
    assert text.splitlines()[-1] == "5"


def test_write_nodata_sentinel_verbatim():
    g = make_grid([[1.0, np.nan]])
    body = write_ascii_grid(g).splitlines()[-1]
    assert body == "1 -9999"


@pytest.mark.parametrize(
    "text,bad_line",
    [
        ("ncols\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n", 1),
        ("ncols 2\nnrows x\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n", 2),
        ("ncols 2\nnrows 1\nbogus 0\nyllcorner 0\ncellsize 1\n1 2\n", 3),
    ],
)
def test_malformed_header_reports_line(text, bad_line):
    with pytest.raises(AsciiGridError) as err:
        read_ascii_grid(text)
    assert err.value.line_no == bad_line


def test_too_few_values_reports_last_line():
    text = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3\n"
    with pytest.raises(AsciiGridError, match="too few values"):
        read_ascii_grid(text)


def test_too_many_values_reports_line():
    text = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n"
    with pytest.raises(AsciiGridError) as err:
        read_ascii_grid(text)
    assert "too many values" in str(err.value)
    assert err.value.line_no == 6


def test_non_numeric_value_token_reports_line():
    text = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 oops\n"
    with pytest.raises(AsciiGridError) as err:
        read_ascii_grid(text)
    assert err.value.line_no == 7


HEADER_2X1 = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"


@pytest.mark.parametrize(
    "text,bad_line,message",
    [
        (HEADER_2X1.replace("ncols 2", "ncols inf") + "1 2\n", 1, "non-finite"),
        (HEADER_2X1.replace("nrows 1", "nrows -inf") + "1 2\n", 2, "non-finite"),
        (HEADER_2X1.replace("xllcorner 0", "xllcorner nan") + "1 2\n", 3, "non-finite"),
        (HEADER_2X1.replace("cellsize 1", "cellsize nan") + "1 2\n", 5, "non-finite"),
        (HEADER_2X1 + "NODATA_value nan\n1 2\n", 6, "non-finite"),
        (HEADER_2X1 + "1 inf\n", 6, "non-finite"),
        (HEADER_2X1 + "NODATA_value -9999\n-inf\n2\n", 7, "non-finite"),
        # the first bad token in reading order decides
        (HEADER_2X1 + "inf\noops\n", 6, "non-finite"),
        (HEADER_2X1 + "1\noops 2 3\n", 7, "non-numeric"),
        (HEADER_2X1 + "1\n2 oops\n", 7, "too many"),
        (HEADER_2X1 + "1\n2 inf\n", 7, "too many"),
        # float() reads these, but none of them is a plain ASCII number
        (HEADER_2X1 + "1 nan\n", 6, "non-finite"),
        (HEADER_2X1 + "NODATA_value -9999\n1\nNaN\n", 8, "non-finite"),
        (HEADER_2X1 + "1_000 2\n", 6, "non-numeric"),
        (HEADER_2X1 + "NODATA_value -9_999\n1 2\n", 6, "non-numeric"),
        (HEADER_2X1.replace("cellsize 1", "cellsize 1_0") + "1 2\n", 5, "non-numeric"),
        (HEADER_2X1 + "1 \uff10\n", 6, "non-ASCII"),
        (HEADER_2X1 + "1\u30002\n", 6, "non-ASCII"),
        (HEADER_2X1.replace("ncols 2", "ncols \uff12") + "1 2\n", 1, "non-ASCII"),
        (HEADER_2X1.replace("yllcorner 0", "yllcorner 0\u2028") + "1 2\n", 4, "non-ASCII"),
        # a header that claims more values than the text can hold allocates nothing
        (HEADER_2X1.replace("ncols 2", "ncols 100000").replace("nrows 1", "nrows 100000")
         + "1 2\n", 6, "too few values: expected 10000000000, the text holds at most 33"),
        (HEADER_2X1.replace("ncols 2", "ncols 1e15").replace("nrows 1", "nrows 1e15")
         + "1 2\n", 6, "too few values: expected 10" + "0" * 29),
    ],
)
def test_non_finite_and_bad_tokens_are_typed_errors(tmp_path, capsys, text, bad_line, message):
    with pytest.raises(AsciiGridError, match=message) as err:
        read_ascii_grid(text)
    assert err.value.line_no == bad_line
    (tmp_path / "dsm.asc").write_text(text)
    rc = main(["dtm", "--dsm", str(tmp_path / "dsm.asc"), "--out-dtm", str(tmp_path / "dtm.asc")])
    assert rc == 2
    assert f"line {bad_line}: {message}" in capsys.readouterr().err


def test_rejects_bad_dimensions_and_cellsize():
    with pytest.raises(AsciiGridError):
        read_ascii_grid("ncols 0\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n")
    with pytest.raises(AsciiGridError):
        read_ascii_grid("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 0\n1\n")
    with pytest.raises(AsciiGridError):
        read_ascii_grid("ncols 1.5\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1\n")


def test_bad_georef_and_grid_values_are_typed_errors(tmp_path, capsys):
    with pytest.raises(PipelineError, match="^grid must be at least 1x1, got 0x1$"):
        GridGeoref(0, 1, 0.0, 0.0, 1.0)
    with pytest.raises(PipelineError, match="^cellsize must be positive, got -1.0$"):
        GridGeoref(1, 1, 0.0, 0.0, -1.0)
    with pytest.raises(PipelineError, match="does not match georef"):
        Grid(GridGeoref(2, 1, 0.0, 0.0, 1.0), np.zeros((2, 1)))
    # a height above ground beyond the float range is inf
    for name, value in (("dsm.asc", 1e308), ("dtm.asc", -1e308)):
        (tmp_path / name).write_text(write_ascii_grid(make_grid(np.full((3, 4), value))))
    (tmp_path / "fp.geojson").write_text('{"type": "FeatureCollection", "features": []}')
    rc = main([
        "estimate", "--dsm", str(tmp_path / "dsm.asc"), "--dtm", str(tmp_path / "dtm.asc"),
        "--footprints", str(tmp_path / "fp.geojson"),
        "--out-heights", str(tmp_path / "h.csv"), "--out-estimates", str(tmp_path / "e.csv"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: grid values must be finite or nodata\n"


def test_grid_keeps_a_float64_array_and_never_writes_the_callers():
    """A grid holds the caller's float64 array as it is; a sentinel cell
    makes a new array, with NaN there, and leaves the caller's as it was."""
    ref = GridGeoref(2, 2, 0.0, 0.0, 1.0)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.shares_memory(Grid(ref, a).data, a)
    b = np.array([[1.0, -9999.0], [3.0, 4.0]])
    b.flags.writeable = False
    g = Grid(ref, b)
    assert b.tolist() == [[1.0, -9999.0], [3.0, 4.0]]
    assert g.valid_mask.tolist() == [[True, False], [True, True]]
    a.flags.writeable = False
    assert Grid(ref, a).data is a


def test_cell_center_convention():
    georef = GridGeoref(3, 2, 10.0, 20.0, 2.0)
    assert georef.col_centers().tolist() == [11.0, 13.0, 15.0]
    # row 0 is the northernmost row
    assert georef.row_centers().tolist() == [23.0, 21.0]


def test_subtract_basic():
    a = make_grid([[21.5]])
    b = make_grid([[1.7]])
    out = grid_subtract(a, b)
    assert out.data[0, 0] == pytest.approx(19.8)


def test_subtract_propagates_nodata():
    a = make_grid([[np.nan, 5.0]])
    b = make_grid([[1.7, np.nan]])
    out = grid_subtract(a, b)
    assert not out.valid_mask.any()


def test_subtract_self_is_zero():
    g = make_grid([[1.0, np.nan], [3.5, -2.0]])
    out = grid_subtract(g, g)
    assert out.data[0, 0] == 0.0
    assert math.isnan(out.data[0, 1])
    assert out.data[1, 0] == 0.0 and out.data[1, 1] == 0.0


def test_subtract_rejects_georef_mismatch():
    a = make_grid([[1.0]])
    b = make_grid([[1.0]], xll=0.001)
    with pytest.raises(GeorefMismatchError):
        grid_subtract(a, b)
    c = make_grid([[1.0, 2.0]])
    with pytest.raises(GeorefMismatchError):
        grid_subtract(a, c)


def test_subtract_mask_union_and_antisymmetry():
    rng = random.Random(7)
    for _ in range(10):
        a = _random_grid(rng)
        b = Grid(a.georef, _random_grid_like(a, rng), a.nodata)
        ab = grid_subtract(a, b)
        ba = grid_subtract(b, a)
        assert np.array_equal(ab.valid_mask, a.valid_mask & b.valid_mask)
        both = ab.valid_mask
        assert np.allclose(ab.data[both] + ba.data[both], 0.0, atol=1e-12)


def _random_grid_like(g: Grid, rng: random.Random) -> np.ndarray:
    values = np.empty_like(g.data)
    for idx in np.ndindex(values.shape):
        values[idx] = np.nan if rng.random() < 0.2 else rng.uniform(-100, 100)
    return values

