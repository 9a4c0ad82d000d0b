"""Row bands: banded grid I/O and the banded PMF equal their one-band results."""

import logging
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import popvol.dtm
import popvol.grid
from popvol import _bands
from popvol.dtm import DtmFilterParams, progressive_morphological_filter
from popvol.errors import AsciiGridError, PipelineError
from popvol.grid import Grid, GridGeoref, read_ascii_grid, write_ascii_grid

from conftest import ExitWhenPickled, assert_no_children, in_child, split_into

SENTINEL = -3.5
_settings = settings(derandomize=True, database=None, max_examples=60, deadline=None)

_cells = st.one_of(
    st.just(float("nan")),
    st.just(SENTINEL),
    st.integers(-10**6, 10**6).map(float),
    st.sampled_from([-0.0, 1e15, -1e15, 1e16, 1e-5, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _grids(draw) -> Grid:
    nrows, ncols = draw(st.integers(1, 24)), draw(st.integers(1, 5))
    cells = draw(st.lists(_cells, min_size=nrows * ncols, max_size=nrows * ncols))
    data = np.array(cells, dtype=np.float64).reshape(nrows, ncols)
    return Grid(GridGeoref(ncols, nrows, 0.0, 0.0, 1.0), data, SENTINEL)


def _outcome(text: str):
    """The grid read, or the message and line of the error."""
    try:
        return read_ascii_grid(text.encode())
    except AsciiGridError as e:
        return str(e), e.line_no


def _written(grid: Grid):
    """The grid's text, or the writer's refusal."""
    try:
        return write_ascii_grid(grid)
    except PipelineError as e:
        return str(e)


def _sentinel_as_nodata(grid: Grid) -> Grid:
    """The grid with its sentinel cells as nodata, as a file holding them reads."""
    return Grid(grid.georef, np.where(grid.data == SENTINEL, np.nan, grid.data), SENTINEL)


@_settings
@given(grid=_grids(), nbands=st.integers(2, 4))
def test_banded_write_equals_one_band(grid, nbands):
    """A grid holding its sentinel is refused, the same whatever the band count."""
    with split_into(1):
        one = _written(grid)
    if (grid.data == SENTINEL).any():
        assert one.startswith("cannot write grid: row ")
        assert one.endswith(" equals NODATA_value -3.5")
    with split_into(nbands):
        assert _written(grid) == one


# one value on the first body line and whole rows after, across three bands
_FIRST_LINE_ONE_VALUE = Grid(
    GridGeoref(300, 200, 0.0, 0.0, 1.0), np.arange(60000.0).reshape(200, 300) / 8
)


@_settings
@given(
    grid=_grids(),
    nbands=st.integers(2, 4),
    sizes=st.one_of(
        st.just([1]),
        st.lists(st.integers(0, 4), min_size=1, max_size=40).map(lambda s: s + [1]),
    ),
    bad=st.sampled_from([None, "oops", "inf", "-inf", "7"]),
    where=st.tuples(st.integers(0, 3), st.integers(0, 99)),
)
@example(grid=_FIRST_LINE_ONE_VALUE, nbands=3, sizes=[1, 299] + [300] * 199, bad=None,
         where=(0, 0))
def test_banded_read_equals_one_band(grid, nbands, sizes, bad, where):
    """Values one per line or spread unevenly over lines; a bad token ("7" is
    one value too many) put into the body lines of one band. A drawn sentinel
    cell is a sentinel token in the text, so it reads as nodata."""
    grid = _sentinel_as_nodata(grid)
    lines = write_ascii_grid(grid).splitlines()
    header, tokens = lines[:6], " ".join(lines[6:]).split()
    body, i = [], 0
    for n in sizes * (len(tokens) + 1):
        if i >= len(tokens):
            break
        body.append(" ".join(tokens[i:i + n]))
        i += n
    if bad is not None:
        band_index, offset = where
        with split_into(nbands):
            bands = _bands.row_bands(len(body), 0)  # fewer than nbands for a short body
        start, stop = bands[band_index % len(bands)]
        line = start + offset % (stop - start)
        body[line] = f"{body[line]} {bad}"
    text = "\n".join(header + body) + "\n"
    with split_into(1):
        one = _outcome(text)
    if bad is None:
        assert one == grid
    else:
        assert isinstance(one, tuple)
    with split_into(nbands):
        assert _outcome(text) == one


@st.composite
def _pmf_cases(draw):
    """A ramp with noise, prisms (one across the first band cut and one on a
    grid edge), nodata holes and a short window progression."""
    initial = draw(st.sampled_from([3, 5]))
    nwindows = draw(st.integers(1, 3))
    cellsize = draw(st.sampled_from([0.5, 1.0, 2.0]))
    windows = [initial]
    while len(windows) < nwindows:
        windows.append(2 * windows[-1] - 1)
    params = DtmFilterParams(
        initial_window=initial,
        max_window_m=windows[-1] * cellsize,
        slope=draw(st.sampled_from([0.0, 0.3, 1.0])),
        initial_threshold_m=draw(st.sampled_from([0.2, 0.5])),
        max_threshold_m=draw(st.sampled_from([0.5, 3.0])),
    )
    halo = max(windows) - 1
    nrows = draw(st.integers(2 * halo + 4, 2 * halo + 40))
    ncols = draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = np.mgrid[0:nrows, 0:ncols]
    data = 40.0 + 0.05 * rows - 0.03 * cols + rng.normal(0.0, 0.05, (nrows, ncols))
    cut = nrows // 2
    prisms = [(cut - 2, 0, 5, ncols // 2 + 1), (nrows - 3, ncols - 4, 3, 4)]
    for _ in range(draw(st.integers(0, 4))):
        prisms.append((int(rng.integers(0, nrows)), int(rng.integers(0, ncols)),
                       int(rng.integers(1, 12)), int(rng.integers(1, 12))))
    for r, c, h, w in prisms:
        data[r:r + h, c:c + w] += rng.uniform(3.0, 20.0)
    data[rng.random((nrows, ncols)) < draw(st.sampled_from([0.0, 0.05, 0.3]))] = np.nan
    if draw(st.booleans()):
        data[cut] = np.nan
    return Grid(GridGeoref(ncols, nrows, 0.0, 0.0, cellsize), data), params


@_settings
@given(case=_pmf_cases(), nbands=st.integers(2, 4))
def test_banded_pmf_equals_one_band(case, nbands):
    dsm, params = case
    with split_into(1):
        dtm_one, ground_one = progressive_morphological_filter(dsm, params)
    calls = []

    def spy(band, bounds, take):
        calls.append(bounds)
        _bands.run_bands(band, bounds, take)

    with split_into(nbands), pytest.MonkeyPatch.context() as mp:
        mp.setattr(popvol.dtm, "run_bands", spy)
        dtm, ground = progressive_morphological_filter(dsm, params)
    assert np.array_equal(dtm.data, dtm_one.data, equal_nan=True)
    assert np.array_equal(ground, ground_one)
    # the split happened, and every band with its halo stayed inside the grid
    halo = max(popvol.dtm.window_sizes(params, dsm.georef.cellsize)) - 1
    (bounds,) = calls
    nrows = dsm.georef.nrows
    assert 2 <= len(bounds) <= nbands
    assert all(min(nrows, b + halo) - max(0, a - halo) < nrows for a, b in bounds)


def test_banded_pmf_with_default_windows():
    """The default 3..65 windows (a 64-row halo) on a grid that splits in two,
    with buildings across the cut, on the edges and wider than a window."""
    rng = np.random.default_rng(11)
    rows, cols = np.mgrid[0:300, 0:40]
    data = 30.0 + 0.02 * rows + rng.normal(0.0, 0.1, rows.shape)
    for r, c, h, w in [(140, 5, 25, 20), (0, 0, 12, 9), (290, 30, 10, 10), (60, 0, 70, 40)]:
        data[r:r + h, c:c + w] += rng.uniform(5.0, 30.0)
    data[rng.random(rows.shape) < 0.02] = np.nan
    dsm = Grid(GridGeoref(40, 300, 0.0, 0.0, 1.0), data)
    with split_into(1):
        dtm_one, ground_one = progressive_morphological_filter(dsm)
    with split_into(2):
        dtm, ground = progressive_morphological_filter(dsm)
    assert np.array_equal(dtm.data, dtm_one.data, equal_nan=True)
    assert np.array_equal(ground, ground_one)
    assert not ground_one[150, 10]


def test_pmf_stays_one_band_when_the_halo_covers_the_grid():
    calls = []
    dsm = Grid(GridGeoref(10, 120, 0.0, 0.0, 1.0), np.zeros((120, 10)))
    with split_into(2), pytest.MonkeyPatch.context() as mp:
        mp.setattr(popvol.dtm, "run_bands", lambda band, bounds, take: calls.append(bounds))
        progressive_morphological_filter(dsm)  # default windows: a 64-row halo
    assert calls == [[(0, 120)]]


def _exit_in_child(code, after):
    """A band whose result is one 100 kB bytes object per row (so that rows
    reach the file past its write buffer), but whose child leaves through
    ``os._exit(code)`` while pickling the row at ``after``."""
    def band(start, stop):
        rows = [bytes([r]) * 100_000 for r in range(start, stop)]
        if in_child():
            rows.insert(after, ExitWhenPickled(code))
        return rows
    return band


@pytest.mark.parametrize("code,after", [(3, 0), (1, 3), (0, 0), (0, 3)])
def test_failed_or_short_worker_band_is_computed_by_the_parent(code, after):
    """Exit codes 3 and 1, and a child exiting 0 before writing or with a
    short file."""
    got = []
    with split_into(3):
        _bands.run_bands(_exit_in_child(code, after), _bands.row_bands(15, 0), got.extend)
    assert got == [bytes([r]) * 100_000 for r in range(15)]


def test_failed_worker_still_gives_the_right_grid_and_pmf():
    rng = np.random.default_rng(3)
    data = rng.normal(50.0, 5.0, (40, 7))
    data[10:14, 2:5] += 12.0
    dsm = Grid(GridGeoref(7, 40, 0.0, 0.0, 1.0), data)
    params = DtmFilterParams(initial_window=3, max_window_m=5.0)
    with split_into(1):
        text = write_ascii_grid(dsm)
        dtm, ground = progressive_morphological_filter(dsm, params)

    real = popvol.grid._format_rows, popvol.grid.parse_tokens, popvol.dtm._filter

    def failing(fn):
        def wrapper(*args):
            if in_child():
                os._exit(5)
            return fn(*args)
        return wrapper

    with split_into(3), pytest.MonkeyPatch.context() as mp:
        for module, fn in zip((popvol.grid, popvol.grid, popvol.dtm), real):
            mp.setattr(module, fn.__name__, failing(fn))
        assert write_ascii_grid(dsm) == text
        assert read_ascii_grid(text.encode()) == dsm
        banded, banded_ground = progressive_morphological_filter(dsm, params)
    assert np.array_equal(banded.data, dtm.data, equal_nan=True)
    assert np.array_equal(banded_ground, ground)


def _recording(fn, ran: set):
    """``fn``, adding its name to ``ran`` when it runs in this process (a
    child adds it to its own copy)."""
    def spy(*args):
        ran.add(fn.__name__)
        return fn(*args)
    return spy


@pytest.mark.parametrize(
    "nbands,expected", [(1, {"_format_rows", "parse_tokens", "_filter"}), (2, set())]
)
def test_bands_run_in_the_caller_only_when_there_is_one(nbands, expected):
    """With two bands, the PMF and the write and read of a split grid compute
    no band in the calling process; one band runs there, with no fork."""
    rng = np.random.default_rng(5)
    dsm = Grid(GridGeoref(7, 40, 0.0, 0.0, 1.0), rng.normal(50.0, 5.0, (40, 7)))
    params = DtmFilterParams(initial_window=3, max_window_m=5.0)
    with split_into(1):
        text = write_ascii_grid(dsm)
        dtm, ground = progressive_morphological_filter(dsm, params)
    ran = set()
    with split_into(nbands), pytest.MonkeyPatch.context() as mp:
        for module, name in ((popvol.grid, "_format_rows"), (popvol.grid, "parse_tokens"),
                             (popvol.dtm, "_filter")):
            mp.setattr(module, name, _recording(getattr(module, name), ran))
        assert write_ascii_grid(dsm) == text
        assert read_ascii_grid(text.encode()) == dsm
        banded, banded_ground = progressive_morphological_filter(dsm, params)
    assert np.array_equal(banded.data, dtm.data)
    assert np.array_equal(banded_ground, ground)
    assert ran == expected


def test_two_band_pmf_holds_no_band_temporaries_in_the_caller():
    """The caller's traced peak is the terrain, the mask and one band's
    result, with 1 MB to spare: the filter's buffers live in the children."""
    rng = np.random.default_rng(8)
    data = 20.0 + rng.normal(0.0, 0.5, (600, 500))
    data[100:160, 50:120] += 15.0
    dsm = Grid(GridGeoref(500, 600, 0.0, 0.0, 1.0), data)
    with split_into(2):
        assert len(_bands.row_bands(600, data.size, 64)) == 2
        tracemalloc.start()
        try:
            progressive_morphological_filter(dsm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    band_result = 300 * 500 * 8  # one band's float64 terrain
    assert peak < data.nbytes + data.size + band_result + 2**20


def test_band_error_is_raised_by_the_parent():
    def band(start, stop):
        if start > 0:
            raise ValueError(f"bad band {start}")
        return start

    with split_into(2), pytest.raises(ValueError, match="bad band 4"):
        _bands.run_bands(band, _bands.row_bands(8, 0), lambda result: None)
    assert_no_children()


def test_children_are_stopped_and_reaped_when_the_parent_fails():
    """The caller fails on the first band's result while the other bands'
    children sleep."""
    def band(start, stop):
        if start > 0:
            time.sleep(60)
        return start

    def take(result):
        raise RuntimeError(f"parent failed on band {result}")

    t0 = time.perf_counter()
    with split_into(3), pytest.raises(RuntimeError, match="parent failed on band 0"):
        _bands.run_bands(band, _bands.row_bands(9, 0), take)
    assert time.perf_counter() - t0 < 30
    assert_no_children()


def test_row_bands_cover_the_rows_in_order():
    with split_into(3):
        assert _bands.row_bands(10, 0) == [(0, 3), (3, 6), (6, 10)]
        assert _bands.row_bands(2, 0) == [(0, 1), (1, 2)]
        assert _bands.row_bands(0, 0) == [(0, 0)]


def test_small_grids_stay_one_band():
    cpus = len(os.sched_getaffinity(0))
    assert _bands.row_bands(100, _bands.MIN_SPLIT_CELLS - 1) == [(0, 100)]
    assert len(_bands.row_bands(100, _bands.MIN_SPLIT_CELLS)) == min(cpus, 100)


def _reference_bands(nrows, cells, halo, cpus):
    """The split rule as ``band_count``, the two-argument ``row_bands`` and
    the PMF's halo-shrink loop composed it before ``row_bands`` took it in."""
    def split(nbands):
        nbands = max(1, min(nbands, nrows))
        return [(nrows * i // nbands, nrows * (i + 1) // nbands) for i in range(nbands)]

    bounds = split(1 if cells < _bands.MIN_SPLIT_CELLS or cpus is None else cpus)
    while len(bounds) > 1 and any(
        min(nrows, stop + halo) - max(0, start - halo) >= nrows for start, stop in bounds
    ):
        bounds = split(len(bounds) - 1)
    return bounds


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(
    nrows=st.integers(0, 600),
    halo=st.integers(0, 300),
    cpus=st.one_of(st.none(), st.integers(1, 8)),
    cells=st.one_of(
        st.integers(0, 4 * _bands.MIN_SPLIT_CELLS),
        st.sampled_from([_bands.MIN_SPLIT_CELLS - 1, _bands.MIN_SPLIT_CELLS]),
    ),
)
def test_row_bands_equal_the_composed_split_rule(nrows, halo, cpus, cells):
    """``cpus`` None: no ``os.sched_getaffinity``, as where fork is missing."""
    with pytest.MonkeyPatch.context() as mp:
        if cpus is None:
            mp.delattr(_bands.os, "sched_getaffinity")
        else:
            mp.setattr(_bands.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert _bands.row_bands(nrows, cells, halo) == _reference_bands(nrows, cells, halo, cpus)


def test_band_is_computed_by_the_parent_when_fork_fails(monkeypatch):
    def no_fork():
        raise OSError("fork unavailable")

    monkeypatch.setattr(_bands.os, "fork", no_fork)
    got = []
    with split_into(3):
        _bands.run_bands(lambda start, stop: list(range(start, stop)),
                         _bands.row_bands(6, 0), got.extend)
    assert got == list(range(6))


_log = logging.getLogger("popvol.test_background")


def _logging_job():
    _log.warning("computed in the %s", "child" if in_child() else "parent")
    return 42


def test_background_job_records_are_logged_by_the_parent_when_taken(caplog):
    with caplog.at_level(logging.WARNING, logger=_log.name):
        with _bands.background(_logging_job) as result:
            assert result() == 42
        assert [r.getMessage() for r in caplog.records] == ["computed in the child"]
        caplog.clear()
        with _bands.background(_logging_job):
            pass  # never taken: the child is stopped and its records dropped
        assert caplog.records == []
    assert_no_children()


def test_background_job_runs_in_the_parent_without_fork(monkeypatch, caplog):
    monkeypatch.delattr(_bands.os, "fork")
    with caplog.at_level(logging.WARNING, logger=_log.name):
        with _bands.background(_logging_job) as result:
            assert caplog.records == []
            assert result() == 42
        assert [r.getMessage() for r in caplog.records] == ["computed in the parent"]
