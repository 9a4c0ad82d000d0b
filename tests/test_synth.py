import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popvol import (
    EmptySelectionError,
    Footprint,
    GridGeoref,
    PipelineError,
    SceneError,
    SyntheticScene,
    TerrainModel,
    rasterize_polygon,
    synthesize_dsm,
)
from popvol.cli import main
from popvol.footprints import rasterize_footprints
from popvol.synth import (
    _LCG_BLOCK,
    LCG_INC,
    LCG_MOD,
    LCG_MULT,
    lcg_noise,
    load_scene,
)

from conftest import cell_set, rectangle_ring


def _scene(prisms=(), noise=0.0, seed=0, terrain=TerrainModel(50.0), size=(60, 50)):
    return SyntheticScene(
        georef=GridGeoref(size[0], size[1], 0.0, 0.0, 1.0),
        terrain=terrain,
        prisms=list(prisms),
        noise_amplitude_m=noise,
        seed=seed,
    )


def test_prism_indicator_exact_without_noise():
    fp = Footprint("P", "T", rectangle_ring(10, 10, 30, 30))
    scene = _scene([(fp, 19.8)])
    result = synthesize_dsm(scene)
    cells = cell_set(rasterize_polygon(fp, scene.georef))
    diff = result.dsm.data - result.truth_dtm.data
    # the surface is bit-identical to terrain + indicator * height
    expected = result.truth_dtm.data.copy()
    for r, c in cells:
        expected[r, c] = expected[r, c] + 19.8
    assert np.array_equal(result.dsm.data, expected)
    for r in range(scene.georef.nrows):
        for c in range(scene.georef.ncols):
            if (r, c) in cells:
                assert diff[r, c] == pytest.approx(19.8, abs=1e-9)
            else:
                assert diff[r, c] == 0.0


def test_same_seed_bit_identical():
    fp = Footprint("P", "T", rectangle_ring(5, 5, 20, 15))
    a = synthesize_dsm(_scene([(fp, 8.0)], noise=0.2, seed=77))
    b = synthesize_dsm(_scene([(fp, 8.0)], noise=0.2, seed=77))
    assert a.dsm == b.dsm


def test_different_seeds_differ():
    a = synthesize_dsm(_scene(noise=0.2, seed=1))
    b = synthesize_dsm(_scene(noise=0.2, seed=2))
    assert not np.array_equal(a.dsm.data, b.dsm.data)


def test_overlapping_prisms_rejected():
    a = Footprint("A", "T", rectangle_ring(10, 10, 20, 20))
    b = Footprint("B", "T", rectangle_ring(20, 20, 20, 20))
    with pytest.raises(SceneError, match="overlap"):
        synthesize_dsm(_scene([(a, 5.0), (b, 7.0)]))


def test_overlap_error_names_the_partially_overlapping_pair():
    # inner nests in outer; c sits in outer too but straddles inner's corner
    outer = Footprint("outer", "T", rectangle_ring(10, 10, 30, 30))
    c = Footprint("C", "T", rectangle_ring(20, 20, 10, 10))
    inner = Footprint("inner", "T", rectangle_ring(15, 15, 10, 10))
    with pytest.raises(SceneError, match=r"^prisms 'C' and 'inner' overlap$"):
        synthesize_dsm(_scene([(outer, 5.0), (c, 7.0), (inner, 9.0)]))
    with pytest.raises(SceneError, match=r"^prisms 'inner' and 'C' overlap$"):
        synthesize_dsm(_scene([(inner, 9.0), (outer, 5.0), (c, 7.0)]))


def _terrain(scene):
    ref = scene.georef
    gx, gy = np.meshgrid(ref.col_centers(), ref.row_centers())
    return (
        scene.terrain.origin_elev
        + scene.terrain.grad_x * (gx - ref.xll)
        + scene.terrain.grad_y * (gy - ref.yll)
    )


def _pairwise_reference(scene):
    """The DSM without noise by the pairwise subset check and a per-cell
    paint; raises SceneError naming the first overlapping (i, j)."""
    ref = scene.georef
    terrain = _terrain(scene)
    cell_sets = [(fp, h, cell_set(rasterize_polygon(fp, ref))) for fp, h in scene.prisms]
    for i in range(len(cell_sets)):
        for j in range(i + 1, len(cell_sets)):
            a, b = cell_sets[i][2], cell_sets[j][2]
            if a & b and not (a <= b or b <= a):
                raise SceneError(f"prisms {cell_sets[i][0].id!r} and {cell_sets[j][0].id!r} overlap")
    dsm = terrain.copy()
    for _, h, cells in sorted(cell_sets, key=lambda t: -len(t[2])):
        for r, c in cells:
            dsm[r, c] = terrain[r, c] + h
    return dsm


def _label_loop_oracle(scene):
    """The DSM without noise by a per-prism label loop: prisms are painted
    largest cell count first (stable in input order) onto a label raster,
    and a prism whose cells carry more than one label partially overlaps the
    first prism under it, in index order, that does not contain it. Raises
    what ``synthesize_dsm`` must raise, with the same message."""
    footprints = [fp for fp, _ in scene.prisms]
    cells = []
    for fp, fp_cells in zip(footprints, rasterize_footprints(footprints, scene.georef)):
        if len(fp_cells) == 0:
            raise EmptySelectionError(fp.id)
        cells.append(tuple(fp_cells.T))
    terrain = _terrain(scene)
    labels = np.full(terrain.shape, -1, dtype=np.int32)
    dsm = terrain.copy()
    for i in sorted(range(len(cells)), key=lambda k: -len(cells[k][0])):
        idx = cells[i]
        under = labels[idx]
        if (under != under[0]).any():
            flat = np.ravel_multi_index(idx, terrain.shape)
            j = next(
                j for j in np.unique(under).tolist()
                if j >= 0 and not np.isin(flat, np.ravel_multi_index(cells[j], terrain.shape)).all()
            )
            a, b = sorted((i, j))
            raise SceneError(f"prisms {footprints[a].id!r} and {footprints[b].id!r} overlap")
        labels[idx] = i
        dsm[idx] = terrain[idx] + scene.prisms[i][1]
    return dsm


def _outcome(fn, scene):
    """The DSM bytes ``fn`` gives for ``scene``, or the type and text of the
    PipelineError it raises."""
    try:
        return fn(scene).tobytes()
    except PipelineError as e:
        return type(e), str(e)


def _halves(lo, hi):
    """Multiples of 0.5 in [lo, hi]: edges through cell centres included."""
    return st.integers(2 * lo, 2 * hi).map(lambda k: k / 2)


@st.composite
def _rectangle_scenes(draw):
    """Up to 7 rectangles on a 12x10 grid, some copied from, cut from inside
    or shifted off an earlier one; shifts can push a prism partly or wholly
    off the grid."""
    rects = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["free", "equal", "inside", "shifted"])) if rects else "free"
        if kind == "free":
            # at least one cell centre of the grid lies inside
            x0, y0 = draw(_halves(-3, 11)), draw(_halves(-3, 9))
            rect = (x0, y0, draw(_halves(max(1, 1 - x0), 8)), draw(_halves(max(1, 1 - y0), 8)))
        else:
            x0, y0, w, d = draw(st.sampled_from(rects))
            if kind == "inside":
                dx, dy = draw(_halves(0, w - 1)), draw(_halves(0, d - 1))
                rect = (x0 + dx, y0 + dy, draw(_halves(1, w - dx)), draw(_halves(1, d - dy)))
            elif kind == "shifted":
                rect = (x0 + draw(_halves(-3, 3)), y0 + draw(_halves(-3, 3)), w, d)
            else:
                rect = (x0, y0, w, d)
        rects.append(rect)
    prisms = [
        (Footprint(f"P{k}", "T", rectangle_ring(*rect)),
         draw(st.floats(0.0, 60.0, allow_nan=False)))
        for k, rect in enumerate(rects)
    ]
    return _scene(prisms, terrain=TerrainModel(50.0, 0.013, -0.029), size=(12, 10))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_rectangle_scenes())
def test_label_raster_matches_pairwise_reference(scene):
    # the same DSM, or the same error type and message, as the label loop
    assert _outcome(lambda s: synthesize_dsm(s).dsm.data, scene) == _outcome(
        _label_loop_oracle, scene
    )
    try:
        expected = _pairwise_reference(scene)
    except (SceneError, EmptySelectionError) as e:
        with pytest.raises(type(e)) as err:
            synthesize_dsm(scene)
        if isinstance(e, SceneError):
            # the named pair partially overlaps and is in input order
            ids = [fp.id for fp, _ in scene.prisms]
            a, b = re.fullmatch(r"prisms '(\w+)' and '(\w+)' overlap", str(err.value)).groups()
            assert ids.index(a) < ids.index(b)
            ca, cb = (
                cell_set(rasterize_polygon(scene.prisms[ids.index(k)][0], scene.georef))
                for k in (a, b)
            )
            assert ca & cb and not (ca <= cb or cb <= ca)
        return
    assert synthesize_dsm(scene).dsm.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "ring,message",
    [
        ([[5, 5], [15, float("nan")], [15, 15], [5, 15]], "footprint 'P1': vertex #1 is not finite"),
        ([[5, 5], [15, 5], [float("-inf"), 15], [5, 15]], "footprint 'P1': vertex #2 is not finite"),
        ([[5, 5], [15], [15, 15], [5, 15]], "prism 'P1': vertex #1 is not an [x, y] pair of numbers"),
        ([[5, 5], [15, True], [15, 15], [5, 15]],
         "prism 'P1': vertex #1 is not an [x, y] pair of numbers"),
        ([[5, 5], [15, 5], [30, 15], [5, 15]], "prisms 'P0' and 'P1' overlap"),
    ],
)
def test_bad_scene_prisms_are_typed_errors(tmp_path, capsys, ring, message):
    doc = {
        "georef": {"ncols": 40, "nrows": 30, "xll": 0.0, "yll": 0.0, "cellsize": 1.0},
        "prisms": [
            {"id": "P0", "ring": [[20, 5], [30, 5], [30, 15], [20, 15]], "height_m": 4.0},
            {"id": "P1", "ring": ring, "height_m": 6.0},
        ],
    }
    (tmp_path / "scene.json").write_text(json.dumps(doc))
    rc = main(["synth", "--scene", str(tmp_path / "scene.json"),
               "--out-dsm", str(tmp_path / "dsm.asc")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "dsm.asc").exists()


@pytest.mark.parametrize(
    "props,message",
    [
        ({"units_per_floor": 2.7}, "prism 'P0': units_per_floor must be a whole number, got 2.7"),
        ({"units_per_floor": True}, "prism 'P0': units_per_floor must be a whole number, got True"),
        ({"units_per_floor": float("inf")},
         "prism 'P0': units_per_floor must be a whole number, got inf"),
        ({"unit_area_m2": True}, "prism 'P0': unit_area_m2 must be a finite number, got True"),
        ({"id": None}, "prism #0: 'id' must be a string or a number, got null"),
        ({"id": False}, "prism #0: 'id' must be a string or a number, got a boolean"),
        ({"id": {"x": 1}}, "prism #0: 'id' must be a string or a number, got an object"),
        ({"id": ["P0"]}, "prism #0: 'id' must be a string or a number, got an array"),
        ({"type_label": None}, "prism 'P0': 'type_label' must be a string or a number, got null"),
        ({"type_label": True},
         "prism 'P0': 'type_label' must be a string or a number, got a boolean"),
        ({"type_label": {}}, "prism 'P0': 'type_label' must be a string or a number, got an object"),
        ({"type_label": []}, "prism 'P0': 'type_label' must be a string or a number, got an array"),
    ],
    ids=["fractional_units", "boolean_units", "infinite_units", "boolean_area", "null_id",
         "boolean_id", "object_id", "array_id", "null_label", "boolean_label", "object_label",
         "array_label"],
)
def test_bad_scene_unit_fields_are_typed_errors(tmp_path, capsys, props, message):
    doc = {
        "georef": {"ncols": 40, "nrows": 30, "xll": 0.0, "yll": 0.0, "cellsize": 1.0},
        "prisms": [{"id": "P0", "ring": [[20, 5], [30, 5], [30, 15], [20, 15]], "height_m": 4.0,
                    **props}],
    }
    (tmp_path / "scene.json").write_text(json.dumps(doc))  # inf is written as Infinity
    rc = main(["synth", "--scene", str(tmp_path / "scene.json"),
               "--out-dsm", str(tmp_path / "dsm.asc"),
               "--out-footprints", str(tmp_path / "fp.geojson")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "scene.json"]


def _tiny_scene(**changes):
    """A one-prism scene with ``changes`` applied: a key path joined by "."
    to its new value."""
    doc = {
        "georef": {"ncols": 40, "nrows": 30, "xll": 0.0, "yll": 0.0, "cellsize": 1.0},
        "terrain": {"origin_elev": 50.0, "grad_x": 0.0, "grad_y": 0.0},
        "prisms": [{"id": "P0", "ring": [[20, 5], [30, 5], [30, 15], [20, 15]], "height_m": 4.0}],
        "noise_amplitude_m": 0.1,
        "seed": 3,
    }
    for path, value in changes.items():
        *parents, key = path.split(".")
        obj = doc
        for k in parents:
            obj = obj[int(k) if k.isdigit() else k]
        obj[key] = value
    return doc


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"prisms.0.height_m": float("nan")}, "prism 'P0': 'height_m' must be a finite number, got nan"),
        ({"prisms.0.height_m": "12"}, "prism 'P0': 'height_m' must be a finite number, got '12'"),
        ({"prisms.0.height_m": True}, "prism 'P0': 'height_m' must be a finite number, got True"),
        ({"noise_amplitude_m": float("nan")},
         "scene 'noise_amplitude_m' must be a finite number, got nan"),
        ({"terrain.origin_elev": float("nan")},
         "scene terrain 'origin_elev' must be a finite number, got nan"),
        ({"terrain.grad_y": None}, "scene terrain 'grad_y' must be a finite number, got None"),
        ({"terrain": None}, "invalid scene definition: 'NoneType' object is not a mapping"),
        ({"seed": 3.7}, "scene 'seed' must be a whole number, got 3.7"),
        ({"georef.ncols": 40.9}, "scene georef 'ncols' must be a whole number, got 40.9"),
        ({"georef.nrows": "30"}, "scene georef 'nrows' must be a whole number, got '30'"),
        ({"georef.cellsize": float("nan")},
         "scene georef 'cellsize' must be a finite number, got nan"),
        ({"georef.xll": float("inf")}, "scene georef 'xll' must be a finite number, got inf"),
        ({"georef.cellsize": 0}, "cellsize must be positive, got 0"),
        ({"georef.ncols": 0}, "grid must be at least 1x1, got 0x30"),
        # refused before numpy is asked for 218 TiB
        ({"georef.ncols": 1e12}, "scene grid of 30x1000000000000 cells takes 223517.4 GiB "
                                 "per layer, more than physical memory"),
        ({"terrain.grad_x": 1e308},
         "scene values overflow the float range (overflow encountered in multiply)"),
        # refused with the footprint, before the paint overflows
        ({"prisms.0.ring": [[0, -1e308], [10, 1e308], [0, 1e308], [0, -1e308]]},
         "footprint 'P0': ring area overflows the float range"),
        # inf - inf would be a NaN cell, written as nodata
        ({"georef.ncols": 1, "georef.nrows": 1, "georef.cellsize": 4, "prisms": [],
          "terrain.grad_x": 1e308, "terrain.grad_y": -1e308},
         "scene values overflow the float range (overflow encountered in multiply)"),
    ],
)
def test_bad_scene_numbers_are_typed_errors(tmp_path, capsys, changes, message):
    (tmp_path / "scene.json").write_text(json.dumps(_tiny_scene(**changes)))
    rc = main(["synth", "--scene", str(tmp_path / "scene.json"),
               "--out-dsm", str(tmp_path / "dsm.asc")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "dsm.asc").exists()


@pytest.mark.parametrize("memory,refused", [(8 * 40 * 30 - 1, True), (8 * 40 * 30, False)])
def test_scene_grid_is_bounded_by_physical_memory(monkeypatch, memory, refused):
    """One float64 layer of the scene's 40x30 grid must fit in physical
    memory, here made ``memory`` bytes."""
    monkeypatch.setattr("os.sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}.__getitem__)
    scene = load_scene(json.dumps(_tiny_scene()))
    if refused:
        with pytest.raises(SceneError, match="^scene grid of 30x40 cells takes 0.0 GiB per layer"):
            synthesize_dsm(scene)
    else:
        synthesize_dsm(scene)


def test_whole_float_scene_numbers_are_integers():
    scene = load_scene(json.dumps(_tiny_scene(**{"georef.ncols": 40.0, "seed": 3.0})))
    assert (scene.georef.ncols, scene.seed) == (40, 3)
    assert type(scene.georef.ncols) is int and type(scene.seed) is int


def test_scene_ids_and_labels_are_strings_or_numbers_as_text():
    doc = {
        "georef": {"ncols": 40, "nrows": 30, "xll": 0.0, "yll": 0.0, "cellsize": 1.0},
        "prisms": [
            {"id": 7, "type_label": 3, "ring": [[20, 5], [30, 5], [30, 15], [20, 15]],
             "height_m": 4.0},
            {"id": "P1", "ring": [[5, 5], [15, 5], [15, 15], [5, 15]], "height_m": 6.0},
        ],
    }
    scene = load_scene(json.dumps(doc))
    assert [(fp.id, fp.type_label) for fp, _ in scene.prisms] == [("7", "3"), ("P1", "building")]


def test_nested_prisms_innermost_wins():
    outer = Footprint("outer", "T", rectangle_ring(10, 10, 30, 30))
    inner = Footprint("inner", "T", rectangle_ring(20, 20, 10, 10))
    result = synthesize_dsm(_scene([(outer, 5.0), (inner, 12.0)]))
    inner_cells = cell_set(rasterize_polygon(inner, result.dsm.georef))
    outer_cells = cell_set(rasterize_polygon(outer, result.dsm.georef))
    r, c = next(iter(inner_cells))
    assert result.dsm.data[r, c] == 50.0 + 12.0
    ring_cell = next(iter(outer_cells - inner_cells))
    assert result.dsm.data[ring_cell] == 50.0 + 5.0


def test_ramp_terrain_values():
    scene = _scene(terrain=TerrainModel(100.0, grad_x=0.05, grad_y=-0.02), size=(4, 3))
    result = synthesize_dsm(scene)
    ref = scene.georef
    for r, y in enumerate(ref.row_centers().tolist()):
        for c, x in enumerate(ref.col_centers().tolist()):
            expected = 100.0 + 0.05 * x + (-0.02) * y
            assert result.dsm.data[r, c] == pytest.approx(expected, abs=1e-12)


def test_lcg_reference_sequence():
    # first values of the documented 64-bit LCG for seed 42
    state = 42
    expected = []
    for _ in range(4):
        state = (state * LCG_MULT + LCG_INC) % LCG_MOD
        expected.append(2.0 * (state / LCG_MOD) - 1.0)
    noise = lcg_noise(42, 4, 1.0)
    assert noise.tolist() == expected
    assert lcg_noise(42, 4, 0.25).tolist() == [0.25 * v for v in expected]


@pytest.mark.parametrize("seed", [0, 42, 2**64 + 12345])
@pytest.mark.parametrize(
    "count", [0, 1, _LCG_BLOCK - 1, _LCG_BLOCK, _LCG_BLOCK + 1, 10_007]
)
def test_lcg_noise_matches_recurrence(seed, count):
    state = seed % LCG_MOD
    expected = []
    for _ in range(count):
        state = (state * LCG_MULT + LCG_INC) % LCG_MOD
        expected.append((2.0 * (state / LCG_MOD) - 1.0) * 0.37)
    noise = lcg_noise(seed, count, 0.37)
    assert noise.dtype == np.float64
    assert noise.tobytes() == np.array(expected, dtype=np.float64).tobytes()


def test_noise_within_amplitude():
    noise = lcg_noise(3, 10_000, 0.1)
    assert np.abs(noise).max() <= 0.1


def test_load_scene_json():
    doc = {
        "georef": {"ncols": 40, "nrows": 30, "xll": 10.0, "yll": 20.0, "cellsize": 1.0},
        "terrain": {"origin_elev": 55.0, "grad_x": 0.01, "grad_y": 0.0},
        "prisms": [
            {
                "id": "B1",
                "type_label": "TypeA",
                "ring": [[15, 25], [25, 25], [25, 35], [15, 35]],
                "height_m": 9.5,
                "unit_area_m2": 85.0,
                "units_per_floor": 4,
            }
        ],
        "noise_amplitude_m": 0.05,
        "seed": 11,
    }
    scene = load_scene(json.dumps(doc))
    assert scene.georef == GridGeoref(40, 30, 10.0, 20.0, 1.0)
    assert scene.terrain == TerrainModel(55.0, 0.01, 0.0)
    fp, height = scene.prisms[0]
    assert (fp.id, fp.type_label, height) == ("B1", "TypeA", 9.5)
    assert fp.unit_area_m2 == 85.0
    assert fp.units_per_floor_override == 4
    assert scene.seed == 11


def test_load_scene_errors():
    with pytest.raises(SceneError):
        load_scene("{not json")
    with pytest.raises(SceneError):
        load_scene(json.dumps({"georef": {"ncols": 4}}))


def test_negative_height_rejected():
    fp = Footprint("P", "T", rectangle_ring(5, 5, 10, 10))
    with pytest.raises(SceneError):
        _scene([(fp, -1.0)])
