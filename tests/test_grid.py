import math
import random

import numpy as np
import pytest

from popvol import (
    AsciiGridError,
    GeorefMismatchError,
    Grid,
    GridGeoref,
    grid_subtract,
    read_ascii_grid,
    write_ascii_grid,
)
from popvol.cli import main
from popvol.grid import _PART_CELLS, format_value

from conftest import make_grid

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
]


@pytest.mark.parametrize("values", ADVERSARIAL)
@pytest.mark.parametrize("nodata", [-9999.0, -3.5, 1e20])
def test_write_matches_format_value_reference(values, nodata):
    arr = np.array(values, dtype=np.float64)
    g = Grid(GridGeoref(arr.shape[1], arr.shape[0], -0.0, 1e-5, 0.5), arr, nodata)
    text = write_ascii_grid(g)
    assert text == _write_reference(g)
    assert read_ascii_grid(text) == g


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


def test_cell_center_convention():
    georef = GridGeoref(3, 2, 10.0, 20.0, 2.0)
    # row 0 is the northernmost row
    assert georef.cell_center(0, 0) == (11.0, 23.0)
    assert georef.cell_center(1, 2) == (15.0, 21.0)


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

